package dgram

import (
	"errors"
	"fmt"

	"protoobf/internal/frame"
	"protoobf/internal/msgtree"
	"protoobf/internal/trace"
	"protoobf/internal/wire"
)

// Zero-overhead mode, after EtherGuard's obfuscation design: a data
// packet on the wire is exactly the obfuscated payload — no header, no
// epoch tag, 0 added bytes — with only a short structural prefix XORed
// against a per-epoch packet pad both peers derive from the shared
// secret. The epoch is implicit: the receiver trial-decodes the packet
// against each candidate epoch of its window, nearest-to-horizon first,
// and accepts the first that parses. Control packets keep full
// treatment (header plus payload masked with the whole-packet pad, plus
// random padding), so on the wire every packet is uniformly
// high-entropy bytes of message-plausible length.
//
// Two costs are inherent to the trade and documented in
// docs/DATAGRAM.md: the pad is static per epoch (identical prefix
// plaintext repeats observably within one epoch — EtherGuard has the
// same limitation, bounded here by epoch rotation), and a packet that
// decodes under no candidate epoch is indistinguishable noise, so all
// zero-overhead rejects are counted as parse rejects rather than
// stale/future.

// zoPrefixLen is how many leading bytes of a data packet the pad
// masks. The prefix covers the structural region — tags, length
// words, discriminators near the front of real protocol messages —
// which is what a classifier keys on; the rest of the payload is
// already obfuscation output. Masking only a bounded prefix keeps the
// per-packet XOR cost flat regardless of payload size.
const zoPrefixLen = 32

// packetPad returns at least n bytes of the packet pad of epoch,
// cached per epoch so the hot path does not re-derive the keystream
// (one SHA-256 chain per derivation) for every packet and every trial.
// Zero-overhead sessions only: NewConn guarantees their padder.
func (c *Conn) packetPad(epoch uint64, n int) []byte {
	c.mu.Lock()
	if pad, ok := c.pads.Get(epoch); ok && len(pad) >= n {
		c.mu.Unlock()
		return pad
	}
	c.mu.Unlock()
	want := n
	if want < 2*zoPrefixLen {
		// Derive a little extra so header trials (12 bytes) and data
		// prefixes (32 bytes) share one cache entry.
		want = 2 * zoPrefixLen
	}
	pad := c.padder.PacketPad(epoch, want)
	c.mu.Lock()
	c.pads.Put(epoch, pad)
	c.mu.Unlock()
	return pad
}

// maskPacketPrefix XORs the packet pad of epoch over pkt[:n] in place
// (mask and unmask are the same operation).
func (c *Conn) maskPacketPrefix(epoch uint64, pkt []byte, n int) {
	if n > len(pkt) {
		n = len(pkt)
	}
	pad := c.packetPad(epoch, n)
	for i := 0; i < n; i++ {
		pkt[i] ^= pad[i]
	}
}

// encodeDataZO serializes m into a zero-overhead data packet: the
// obfuscated payload itself, prefix-masked. Callers hold smu.
func (c *Conn) encodeDataZO(m *msgtree.Message, epoch uint64) ([]byte, error) {
	out, err := wire.SerializeAppend(m, c.wbuf[:0])
	if err != nil {
		return nil, err
	}
	c.wbuf = out
	if len(out) > c.maxPacket {
		return nil, fmt.Errorf("dgram: message of %d bytes exceeds max packet %d", len(out), c.maxPacket)
	}
	n := len(out)
	if n > zoPrefixLen {
		n = zoPrefixLen
	}
	c.maskPacketPrefix(epoch, out, n)
	return out, nil
}

// candidateEpochs fills cands with the epochs of the decode window
// ordered by likelihood: the horizon itself, then alternating one
// behind, one ahead, two behind, two ahead, … out to ±W. Steady-state
// packets match the first candidate; the worst case (an undecodable
// packet) costs 2W+1 trials.
func (c *Conn) candidateEpochs(cands []uint64) []uint64 {
	h := c.horizon.Load()
	cands = append(cands[:0], h)
	for d := uint64(1); d <= c.window; d++ {
		if h >= d {
			cands = append(cands, h-d)
		}
		cands = append(cands, h+d)
	}
	return cands
}

// decodeZO decodes one zero-overhead packet by trial. Control packets
// are tried first — a header trial per candidate is a 12-byte XOR plus
// an exact 64-bit epoch match, a far stronger and cheaper discriminator
// than a full parse — then data packets, nearest candidate first. Each
// data trial parses a fresh copy of the packet because unmasking is
// destructive and the parser must see the prefix unmasked under
// exactly one epoch.
func (c *Conn) decodeZO(pkt []byte, memo *dialectMemo) (*msgtree.Message, error) {
	if len(pkt) == 0 {
		c.stats.RejectedMalformed.Add(1)
		c.ec.Emit(trace.KindDgramReject, 0, "malformed")
		return nil, errors.New("dgram: empty packet")
	}
	var cbuf [2*DefaultEpochWindow + 1]uint64
	cands := c.candidateEpochs(cbuf[:0])

	// Control trial: unmask a 12-byte header copy under each candidate
	// pad and demand full consistency — a known control kind, the
	// packet's epoch word equal to the candidate (a 1-in-2^64 accident
	// otherwise), and a payload length the packet can hold.
	if len(pkt) >= frame.EpochHeaderLen {
		var hdr [frame.EpochHeaderLen]byte
		for _, e := range cands {
			pad := c.packetPad(e, frame.EpochHeaderLen)
			for i := range hdr {
				hdr[i] = pkt[i] ^ pad[i]
			}
			kind, n, epoch, err := frame.DecodeHeader(hdr[:])
			if err != nil || kind == frame.KindData || kind > frame.KindMax ||
				epoch != e || frame.EpochHeaderLen+n > len(pkt) {
				continue
			}
			full := c.packetPad(e, frame.EpochHeaderLen+n)
			body := append(c.scratch[:0], pkt[frame.EpochHeaderLen:frame.EpochHeaderLen+n]...)
			c.scratch = body
			for i := range body {
				body[i] ^= full[frame.EpochHeaderLen+i]
			}
			return nil, c.handleControl(kind, e, body)
		}
	}

	// Data trial: unmask the prefix under each candidate epoch and let
	// that epoch's dialect judge the whole packet. A wrong epoch leaves
	// the structural prefix scrambled, so its parse fails immediately.
	prefix := len(pkt)
	if prefix > zoPrefixLen {
		prefix = zoPrefixLen
	}
	for _, e := range cands {
		g, err := c.memoDialect(e, memo)
		if err != nil {
			continue
		}
		pad := c.packetPad(e, prefix)
		trial := append(c.scratch[:0], pkt...)
		c.scratch = trial
		for i := 0; i < prefix; i++ {
			trial[i] ^= pad[i]
		}
		// The parser copies terminal content out of the trial buffer,
		// so reusing scratch for the next packet cannot corrupt a
		// returned message.
		m, err := wire.Parse(g, trial, c.ec.Split())
		if err != nil {
			continue
		}
		c.ec.Raise(e)
		c.stats.DataRecv.Add(1)
		return m, nil
	}
	c.stats.RejectedParse.Add(1)
	c.ec.Emit(trace.KindDgramReject, c.horizon.Load(), "parse")
	return nil, fmt.Errorf("dgram: packet of %d bytes decoded under no candidate epoch (horizon %d, window %d)", len(pkt), c.horizon.Load(), c.window)
}
