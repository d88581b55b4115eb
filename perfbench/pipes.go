package main

import (
	"errors"
	"io"
)

// errDrained is what an inline pipe's Read returns when nothing is
// buffered.
var errDrained = errors.New("perfbench: inline pipe drained")

// inlinePipe is one direction of a buffered in-memory stream for drivers
// that run both peers of a session pair in one goroutine, the way
// protoobf.Pipe is used in tests. It differs in one respect: a Read with
// nothing buffered returns errDrained instead of blocking. A rekey
// handshake's ack travels back on a direction no data follows, and the
// driver collects it with one Recv on the proposer, which must return
// once the ack is handled. It counts every byte written, which is the
// workload's wire volume.
type inlinePipe struct {
	buf     []byte
	off     int
	written int64
}

// inlineEnd is one end of an inline duplex: it reads one direction and
// writes the other.
type inlineEnd struct{ r, w *inlinePipe }

func newInlineDuplex() (*inlineEnd, *inlineEnd) {
	ab, ba := &inlinePipe{}, &inlinePipe{}
	return &inlineEnd{r: ba, w: ab}, &inlineEnd{r: ab, w: ba}
}

func (e *inlineEnd) Read(p []byte) (int, error) {
	h := e.r
	if h.off == len(h.buf) {
		return 0, errDrained
	}
	n := copy(p, h.buf[h.off:])
	h.off += n
	if h.off == len(h.buf) {
		h.buf, h.off = h.buf[:0], 0
	}
	return n, nil
}

func (e *inlineEnd) Write(p []byte) (int, error) {
	e.w.buf = append(e.w.buf, p...)
	e.w.written += int64(len(p))
	return len(p), nil
}

// countingPacket wraps one end of a protoobf.PacketPipe and counts the
// bytes of every packet written through it.
type countingPacket struct {
	io.ReadWriteCloser
	written int64
}

func (c *countingPacket) Write(p []byte) (int, error) {
	c.written += int64(len(p))
	return c.ReadWriteCloser.Write(p)
}
