package session

import (
	"io"
	"sync"
	"sync/atomic"

	"protoobf/internal/frame"
)

// Transport is the epoch-tagged framed byte layer of a session: it moves
// already-serialized payloads over rw, stamping each outgoing frame with
// the current epoch and surfacing the epoch of each incoming frame. Conn
// builds the dialect-aware message layer on top of it; raw payload
// probes (SendPayload/RecvPayload through Conn.Transport) use it
// directly.
//
// Methods are safe for concurrent use: writes are serialized by one
// writer lock, reads by one reader lock, and the epoch is read without
// locking.
type Transport struct {
	epoch atomic.Uint64

	// maxLead bounds how far ahead of the current epoch an incoming
	// frame may pull the send epoch via the follow rule; frames beyond
	// it are still delivered but do not move the epoch, so a forged
	// epoch header cannot pin the (monotonic) epoch at a garbage value.
	maxLead uint64

	wmu  sync.Mutex // serializes frame writes, guards whdr
	w    io.Writer
	whdr [frame.EpochHeaderLen]byte

	rmu  sync.Mutex // serializes frame reads, guards rhdr
	r    io.Reader
	rhdr [frame.EpochHeaderLen]byte
}

// NewTransport wraps rw in a session transport starting at epoch 0.
func NewTransport(rw io.ReadWriter) *Transport {
	return &Transport{w: rw, r: rw, maxLead: DefaultMaxEpochLead}
}

// Epoch returns the current send epoch (lock-free).
func (t *Transport) Epoch() uint64 { return t.epoch.Load() }

// Advance raises the send epoch to epoch. Epochs are monotonic: a value
// at or below the current epoch is ignored, so racing advances (local
// rotation vs. following a peer) settle on the highest epoch seen.
func (t *Transport) Advance(epoch uint64) { raiseEpoch(&t.epoch, epoch) }

// SendPayload writes one payload tagged with the current epoch.
func (t *Transport) SendPayload(payload []byte) error {
	return t.sendPayloadAt(t.epoch.Load(), payload)
}

// sendPayloadAt writes one data payload tagged with an explicit epoch
// (used by Conn, which binds the epoch to the message's graph).
func (t *Transport) sendPayloadAt(epoch uint64, payload []byte) error {
	return t.sendFrameAt(frame.KindData, epoch, payload)
}

// sendFrameAt writes one frame of any kind. The header is staged in the
// transport's own scratch so the hot path does not allocate; Conn's
// control plane (the rekey handshake) sends its control frames through
// here with a nonzero kind.
func (t *Transport) sendFrameAt(kind byte, epoch uint64, payload []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if err := frame.EncodeHeader(t.whdr[:], kind, epoch, len(payload)); err != nil {
		return err
	}
	if _, err := t.w.Write(t.whdr[:]); err != nil {
		return err
	}
	_, err := t.w.Write(payload)
	return err
}

// recvFrame reads one frame under rmu into buf, via the transport's own
// header scratch (no per-read allocation).
func (t *Transport) recvFrame(buf []byte) ([]byte, uint64, byte, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	if _, err := io.ReadFull(t.r, t.rhdr[:]); err != nil {
		return buf, 0, 0, err
	}
	kind, n, epoch, err := frame.DecodeHeader(t.rhdr[:])
	if err != nil {
		return buf, 0, 0, err
	}
	out, err := frame.ReadBody(t.r, buf, n)
	return out, epoch, kind, err
}

// RecvPayload reads one data frame, appending the payload to buf (which
// may be nil or a recycled buffer) and returning the extended slice and
// the frame's epoch. Control frames (the session layer's rekey
// handshake) are read and discarded: raw transport users exchange
// payloads only, and a control frame neither surfaces nor moves the
// epoch. Receiving a data epoch above the current send epoch — but
// within DefaultMaxEpochLead of it — advances it, so a peer follows the
// other side's rotation automatically; a frame naming a far-future epoch
// is delivered without moving the epoch (the caller sees the raw epoch
// and decides).
func (t *Transport) RecvPayload(buf []byte) ([]byte, uint64, error) {
	for {
		out, epoch, kind, err := t.recvFrame(buf)
		if err != nil {
			return out, 0, err
		}
		if kind != frame.KindData {
			buf = out[:0]
			continue
		}
		t.follow(epoch)
		return out, epoch, nil
	}
}

// follow applies the bounded follow rule.
func (t *Transport) follow(epoch uint64) {
	if cur := t.epoch.Load(); epoch > cur && epoch-cur <= t.maxLead {
		t.Advance(epoch)
	}
}
