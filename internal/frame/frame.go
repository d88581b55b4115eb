// Package frame implements the transport framing of the session layer
// (internal/session) on byte streams. Obfuscated messages are not
// self-framing (the transformed format may end with variable padding or
// End-bounded fields), so every message travels in an epoch frame:
//
//	[4-byte kind|length][8-byte epoch][payload]
//
// The length counts the payload only. The epoch is the dialect epoch of
// the session layer, carried outside the obfuscated payload: it selects
// which protocol version decodes the payload, so it cannot itself live
// inside the version-dependent bytes. This is a transport concern,
// deliberately outside the message format that the obfuscation
// transforms.
//
// Payloads are bounded by MaxFrame (1 MiB), so the top byte of the
// 4-byte length word is always zero for data frames. The session layer
// claims that byte as the frame kind: kind 0 (KindData) is an ordinary
// message frame — byte-identical to the pre-kind wire format — and
// nonzero kinds are reserved control frames (the in-band rekey and
// resume handshakes, cover traffic). A decoder that predates the kind
// byte rejects control frames as oversized rather than misparsing them;
// kinds above KindMax are unassigned and rejected by the session layer.
//
// Readers decode the header with DecodeHeader and read the payload with
// ReadBody into a pooled or reused buffer (GetBuffer/PutBuffer), so a
// steady-state read loop does not allocate per message.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single message on the wire.
const MaxFrame = 1 << 20

// EpochHeaderLen is the size of the epoch frame preamble: 4-byte
// kind|length word plus 8-byte epoch.
const EpochHeaderLen = 12

// Frame kinds, carried in the top byte of the length word of an epoch
// frame. Data frames are byte-identical to the kindless format; the
// remaining values are the session control plane.
const (
	// KindData is an ordinary obfuscated message frame.
	KindData = 0x00
	// KindRekeyPropose proposes switching the dialect family to a fresh
	// obfuscation seed from a given epoch onward. The payload is a masked
	// (epoch, seed) pair; see internal/session.
	KindRekeyPropose = 0x01
	// KindRekeyAck accepts a proposal by echoing its masked (epoch, seed)
	// pair. Only after the ack does either peer send under the new family.
	KindRekeyAck = 0x02
	// KindResume re-attaches a migrated session: the payload is a sealed
	// resumption ticket (see internal/session) and the header epoch names
	// the epoch the ticket was exported at, so the acceptor can bound-check
	// a ticket before paying to open it. It is only meaningful as the
	// opening frame of a fresh byte stream.
	KindResume = 0x03
	// KindResumeAck accepts a resume by echoing a masked digest of the
	// ticket. It is sent under the resumed session's dialect family, so
	// receiving it proves the acceptor adopted the ticket's rekey lineage.
	KindResumeAck = 0x04
	// KindCover is a cover (decoy) frame: shaped sessions emit them from
	// an idle-timer scheduler so quiet sessions still show plausible
	// traffic (see internal/session/shape). The payload is chaff — every
	// receiver, shaped or not, silently discards it, so a shaped peer can
	// talk to an unmodified one without breaking it.
	KindCover = 0x05
	// KindTicket pushes a freshly re-issued resumption ticket to the
	// peer: after a rekey invalidates the ticket a migrated session left
	// with, the acceptor exports a new one in-band so the session can
	// migrate again. The payload is a sealed ticket; the receiver
	// verifies it under its own dialect family before storing it (see
	// internal/session) and rejects anything that does not open.
	KindTicket = 0x06
	// KindMax is the highest assigned frame kind. Kinds above it are
	// unassigned: the session layer rejects them with a counted reason
	// rather than guessing, so a future kind cannot be silently eaten by
	// old peers and a corrupted kind byte is surfaced, not resynced over.
	KindMax = KindTicket
)

// bufPool recycles payload buffers between reads and serializations. It
// is shared by this package and internal/session so the whole transport
// stack draws from one pool.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetBuffer returns a zero-length pooled buffer with nonzero capacity.
func GetBuffer() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuffer returns a buffer obtained from GetBuffer (or grown from one)
// to the pool. Oversized buffers are dropped so one giant frame does not
// pin its memory forever.
func PutBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > MaxFrame {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// EncodeHeader fills hdr (EpochHeaderLen bytes) with an epoch frame
// preamble carrying an explicit frame kind. Callers owning a long-lived
// header scratch (e.g. a session transport) avoid the stack-to-heap
// escape a local array would pay when handed to an io.Writer.
func EncodeHeader(hdr []byte, kind byte, epoch uint64, payloadLen int) error {
	if payloadLen > MaxFrame {
		return fmt.Errorf("frame: payload of %d bytes exceeds limit %d", payloadLen, MaxFrame)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(kind)<<24|uint32(payloadLen))
	binary.BigEndian.PutUint64(hdr[4:EpochHeaderLen], epoch)
	return nil
}

// DecodeHeader parses an epoch frame preamble previously read from the
// stream, splitting the kind byte off the length word.
func DecodeHeader(hdr []byte) (kind byte, payloadLen int, epoch uint64, err error) {
	word := binary.BigEndian.Uint32(hdr[:4])
	kind = byte(word >> 24)
	n := word & 0x00FFFFFF
	if n > MaxFrame {
		return 0, 0, 0, fmt.Errorf("frame: length %d exceeds limit %d", n, MaxFrame)
	}
	return kind, int(n), binary.BigEndian.Uint64(hdr[4:EpochHeaderLen]), nil
}

// ReadBody appends n bytes from r to buf, reusing buf's capacity: the
// payload-read half of a frame read, after DecodeHeader has named n.
func ReadBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	if cap(buf)-start < n {
		grown := make([]byte, start+n, start+n)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:start+n]
	}
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return buf[:start], err
	}
	return buf, nil
}
