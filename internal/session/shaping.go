package session

import (
	"fmt"
	"sync"
	"time"

	"protoobf/internal/frame"
	"protoobf/internal/metrics"
	"protoobf/internal/session/shape"
	"protoobf/internal/trace"
)

// Traffic shaping: the session's answer to the statistical observer.
// The dialect rotation hides message *content*; shaping hides message
// *shape*. With Options.Shape set, every outgoing data frame is padded
// to a length sampled from the profile (and split at the profile MTU),
// departures are paced to sampled inter-frame gaps, and an idle-timer
// scheduler emits cover frames (frame.KindCover) so a quiet session
// still shows plausible traffic. Pad bytes ride inside the framed
// payload behind a fixed trailer (see shape.TrailerLen) because the
// cleartext length word must keep naming the byte count the receiver
// reads — which also means shaping is symmetric: both peers must be
// built with the same profile, exactly like the (spec, seed) contract.
// Cover frames are the asymmetric half: every receiver discards them,
// shaped or not.
//
// Profile parameters are re-derived per epoch from the Versioner's
// shape seed (ShapeSeeder; core.View follows the rekeyed seed family),
// so the observable shape rotates at epoch boundaries and jumps on
// rekey, exactly like the dialect.

// ShapeSeeder is the optional Versioner extension behind per-epoch
// shape rotation: the shaping seed of an epoch, derived from the seed
// family active at it. core.View implements it; a Versioner without it
// (Fixed) shapes every epoch from the profile's own Seed.
type ShapeSeeder interface {
	ShapeSeed(epoch uint64) int64
}

// shaper holds a Conn's shaping state. Its mutex serializes shaping
// decisions *and* the frame writes they produce (the transport write
// lock nests inside), so fragments of one message are contiguous on the
// wire and pacing decisions see departures in order.
type shaper struct {
	base   shape.Profile
	seeder ShapeSeeder // nil: static shape from base.Seed
	clock  func() time.Time
	sleep  func(time.Duration)
	stats  *metrics.ShapeCounters

	mu      sync.Mutex
	epoch   uint64         // epoch the current sampler was derived for
	sampler *shape.Sampler // lazily (re-)derived per epoch
	next    time.Time      // earliest departure of the next frame
	last    time.Time      // most recent departure (cover idle datum)
	scratch []byte         // staging buffer for shaped frames
}

// newShaper builds the shaping state for opts (opts.Shape is non-nil
// and validated). The clock and sleep are injectable for deterministic
// captures and tests; production defaults are time.Now and time.Sleep.
func newShaper(opts Options, versions Versioner) *shaper {
	sh := &shaper{
		base:  *opts.Shape,
		clock: opts.ShapeClock,
		sleep: opts.ShapeSleep,
		stats: opts.ShapeStats,
	}
	if sh.clock == nil {
		sh.clock = time.Now
	}
	if sh.sleep == nil {
		sh.sleep = time.Sleep
	}
	if s, ok := versions.(ShapeSeeder); ok {
		sh.seeder = s
	}
	sh.last = sh.clock()
	return sh
}

// samplerLocked returns the sampler of epoch, re-deriving the profile
// when the epoch moved: the shape rotates at epoch boundaries. Callers
// hold sh.mu.
func (sh *shaper) samplerLocked(epoch uint64) *shape.Sampler {
	if sh.sampler == nil || sh.epoch != epoch {
		seed := sh.base.Seed
		if sh.seeder != nil {
			seed = sh.seeder.ShapeSeed(epoch)
		}
		sh.sampler = shape.NewSampler(shape.Derive(sh.base, seed, epoch), shape.MixSeed(seed+1, epoch))
		sh.epoch = epoch
	}
	return sh.sampler
}

// paceLocked delays the caller until the scheduled departure of the
// next frame, then schedules the one after by a sampled gap — the
// inter-frame jitter. With the profile's gap support above the
// application's send cadence, observed departures are the sampled
// process and the application's burst pattern vanishes. Returns the
// injected delay. Callers hold sh.mu.
func (sh *shaper) paceLocked(s *shape.Sampler) time.Duration {
	now := sh.clock()
	var waited time.Duration
	if sh.next.After(now) {
		waited = sh.next.Sub(now)
		sh.sleep(waited)
		if now = sh.clock(); sh.next.After(now) {
			now = sh.next // a sleep stub that does not move the clock
		}
	}
	sh.next = now.Add(s.Gap())
	sh.last = now
	return waited
}

// sendShaped morphs one serialized payload into shaped frames and
// writes them: split at the profile MTU, each chunk padded to a sampled
// target length behind the shaping trailer, each departure paced.
func (c *Conn) sendShaped(epoch uint64, payload []byte) error {
	sh := c.shaper
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.samplerLocked(epoch)
	maxChunk := sh.base.MTU - shape.TrailerLen
	total := uint64(0)
	frames := 0
	for {
		chunk := payload
		more := len(payload) > maxChunk
		if more {
			chunk = payload[:maxChunk]
		}
		payload = payload[len(chunk):]
		need := len(chunk) + shape.TrailerLen
		pad := s.TargetLen(need) - need
		buf := append(sh.scratch[:0], chunk...)
		buf = s.AppendPad(buf, pad)
		buf = shape.AppendTrailer(buf, pad, more)
		sh.scratch = buf
		delay := sh.paceLocked(s)
		if err := c.t.sendFrameAt(frame.KindData, epoch, buf); err != nil {
			return err
		}
		frames++
		total += uint64(len(buf)) + frame.EpochHeaderLen
		if st := sh.stats; st != nil {
			st.ShapedFrames.Add(1)
			st.PadBytes.Add(uint64(pad))
			st.DelayHist.ObserveDuration(delay)
			if delay > 0 {
				st.DelayNanos.Add(uint64(delay))
			}
		}
		if !more {
			break
		}
	}
	if st := sh.stats; st != nil && frames > 1 {
		st.Fragments.Add(uint64(frames - 1))
	}
	c.bytesMoved.Add(total)
	return nil
}

// unshape strips the shaping trailer from one received data frame and
// folds fragments into the reassembly buffer. It returns the complete
// message payload, or done=false when the frame was a fragment and the
// Recv loop should keep reading. Callers hold c.pmu.
func (c *Conn) unshape(epoch uint64, buf []byte) (payload []byte, done bool, err error) {
	reject := func(e error) (payload []byte, done bool, err error) {
		c.reasm, c.reasmWire = c.reasm[:0], 0
		if c.shapeStats != nil {
			c.shapeStats.UnshapeRejects.Add(1)
		}
		return nil, false, e
	}
	chunk, more, err := shape.SplitTrailer(buf)
	if err != nil {
		return reject(fmt.Errorf("session: epoch %d: %w", epoch, err))
	}
	if len(c.reasm) > 0 && epoch != c.reasmEpoch {
		return reject(fmt.Errorf("session: shaped fragment at epoch %d interrupts a fragment stream at epoch %d", epoch, c.reasmEpoch))
	}
	if len(c.reasm)+len(chunk) > frame.MaxFrame {
		return reject(fmt.Errorf("session: reassembled shaped message exceeds limit %d", frame.MaxFrame))
	}
	if more {
		if len(c.reasm) == 0 {
			c.reasmEpoch = epoch
		}
		c.reasm = append(c.reasm, chunk...)
		c.reasmWire += uint64(len(buf)) + frame.EpochHeaderLen
		return nil, false, nil
	}
	if len(c.reasm) > 0 {
		payload = append(c.reasm, chunk...)
		c.reasm = c.reasm[:0]
		return payload, true, nil
	}
	return chunk, true, nil
}

// emitCoverIfIdle writes one cover frame when the session has been
// quiet past the profile's CoverIdle threshold: the decoy the idle
// scheduler exists for. The cover payload is sampled chaff at a
// profile-sampled length, sent under the current epoch. It leaves the
// volume odometer alone: receivers discard covers uncounted, and a cover
// counted here would make a fresh acceptor refuse a resume as
// established. It reports whether a cover was sent.
func (c *Conn) emitCoverIfIdle() (bool, error) {
	sh := c.shaper
	if sh == nil || sh.base.CoverIdle <= 0 {
		return false, nil
	}
	sh.mu.Lock()
	now := sh.clock()
	if now.Sub(sh.last) < sh.base.CoverIdle {
		sh.mu.Unlock()
		return false, nil
	}
	epoch := c.t.Epoch()
	s := sh.samplerLocked(epoch)
	buf := s.AppendPad(sh.scratch[:0], s.TargetLen(1))
	sh.scratch = buf
	sh.next = now.Add(s.Gap())
	sh.last = now
	err := c.t.sendFrameAt(frame.KindCover, epoch, buf)
	sh.mu.Unlock()
	if err != nil {
		return false, err
	}
	if st := sh.stats; st != nil {
		st.CoverSent.Add(1)
	}
	c.ec.Emit(trace.KindCoverBurst, epoch, "")
	return true, nil
}

// startCover launches the idle-timer cover scheduler when the profile
// asks for cover traffic. Sessions with an injected shape clock are
// simulations — they pump emitCoverIfIdle themselves — so the goroutine
// only runs on the production clock.
func (c *Conn) startCover(opts Options) {
	if opts.Shape == nil || opts.Shape.CoverIdle <= 0 || opts.ShapeClock != nil {
		return
	}
	c.stopCover = make(chan struct{})
	c.coverDone = make(chan struct{})
	go c.coverLoop(c.stopCover, opts.Shape.CoverIdle)
}

// coverLoop polls the idle threshold at a quarter of its width until
// the session is released or the stream dies under a cover write.
func (c *Conn) coverLoop(stop <-chan struct{}, idle time.Duration) {
	defer close(c.coverDone)
	period := idle / 4
	if period <= 0 {
		period = idle
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := c.emitCoverIfIdle(); err != nil {
				// The stream is gone; the owner's next Send/Recv
				// surfaces the error.
				return
			}
		}
	}
}

// stopCoverLoop terminates the cover scheduler, once, and waits for it
// to exit: Release is about to return the transport's buffers to the
// pool, and a cover write still in flight must not touch them after
// that. Close unblocks a write stuck on a dead stream by closing the
// stream first.
func (c *Conn) stopCoverLoop() {
	if c.stopCover == nil {
		return
	}
	c.stopCoverOnce.Do(func() { close(c.stopCover) })
	<-c.coverDone
}
