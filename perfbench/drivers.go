package main

import (
	"errors"
	"fmt"
	"io"
	"net"

	"protoobf"
	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
	"protoobf/internal/wire"
)

// errMismatch marks an exchange whose decoded request or reply differs
// from the generator's copy. The run goes on; the exchange counts as
// failed.
var errMismatch = errors.New("decoded message differs from the generator's copy")

// driver runs one closed loop of exchanges: the next request is sent
// only after the previous reply has been verified.
type driver interface {
	// prepare draws the next exchange from the generator, outside the
	// timed exchange.
	prepare()
	// exchange sends the prepared request and verifies the reply.
	exchange(t *tracer) error
	// cross steps every session of the driver to the next epoch (the
	// k-th boundary, k >= 1) and runs the prepared exchange across it.
	// It returns the time of the step itself: the Rotate/Advance calls,
	// or for a rekey the whole handshake with its exchange.
	cross(k int, t *tracer) (stepNs int64, err error)
	// wireBytes returns the obfuscated bytes, framing included, the
	// driver's sessions have put on the wire so far.
	wireBytes() int64
}

// conn is the message API stream and packet sessions share.
type conn interface {
	NewMessage() (*msgtree.Message, error)
	Send(*msgtree.Message) error
	Recv() (*msgtree.Message, error)
	Advance(uint64) error
}

// compose is the client half of sending a message: the session's
// NewMessage (current dialect, per-message rng) and the protocol's Build
// helper on that dialect and rng.
func compose[T any](t *tracer, c conn, v T, build func(*graph.Graph, *rng.R, T) (*msgtree.Message, error)) (*msgtree.Message, error) {
	t.begin(lNewMessage)
	m0, err := c.NewMessage()
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin(lBuild)
	m, err := build(m0.G, m0.Rng, v)
	t.end()
	return m, err
}

func send(t *tracer, l layer, c conn, m *msgtree.Message) error {
	t.begin(l)
	err := c.Send(m)
	t.end()
	return err
}

func recv(t *tracer, l layer, c conn) (*msgtree.Message, error) {
	t.begin(l)
	m, err := c.Recv()
	t.end()
	return m, err
}

// leg is one direction of an inline exchange: the sending session, its
// receiving peer, the raw payload round trip below them (the transport
// probe) and the bytes written on the way.
type leg struct {
	tx, rx conn
	rt     func(payload []byte) error
	bytes  func() int64
}

// inlineDriver runs the client and the server of one session pair set
// in its own goroutine: requests go client→server on one leg, replies
// server→client on the other (each spec is its own dialect family).
// Nothing is handed to another goroutine, so an exchange measures the
// message path alone.
type inlineDriver[Q, P any] struct {
	a        *app[Q, P]
	gen      generator[Q, P]
	respond  func(Q) P
	req, rsp leg
	sendL    layer
	recvL    layer
	epoch    uint64

	// rekeyEvery > 0 makes every boundary k with k%rekeyEvery == 1 a
	// rekey of both families, proposed by the sending sessions; the
	// seeds come from rekeySeed, fixed by the workload.
	rekeyEvery int
	rekeySeed  func(k int, leg int) int64
	proposers  [2]*protoobf.Session
	sessions   [4]*protoobf.Session

	q    Q
	want P

	probe *prober
}

func (d *inlineDriver[Q, P]) prepare() { d.q, d.want = d.gen.next() }

func (d *inlineDriver[Q, P]) wireBytes() int64 { return d.req.bytes() + d.rsp.bytes() }

func (d *inlineDriver[Q, P]) exchange(t *tracer) error {
	m, err := compose(t, d.req.tx, d.q, d.a.buildReq)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	if err := send(t, d.sendL, d.req.tx, m); err != nil {
		return fmt.Errorf("send request: %w", err)
	}
	got, err := recv(t, d.recvL, d.req.rx)
	if err != nil {
		return fmt.Errorf("receive request: %w", err)
	}
	if err := d.probe.run(t, m, d.req.rt); err != nil {
		return err
	}
	t.begin(lExtract)
	q, err := d.a.extractReq(got)
	t.end()
	if err != nil {
		return fmt.Errorf("extract request: %w", err)
	}
	t.begin(lVerify)
	okQ := d.a.equalReq(q, d.q)
	t.end()
	t.begin(lRespond)
	p := d.respond(q)
	t.end()

	m, err = compose(t, d.rsp.tx, p, d.a.buildResp)
	if err != nil {
		return fmt.Errorf("build reply: %w", err)
	}
	if err := send(t, d.sendL, d.rsp.tx, m); err != nil {
		return fmt.Errorf("send reply: %w", err)
	}
	got, err = recv(t, d.recvL, d.rsp.rx)
	if err != nil {
		return fmt.Errorf("receive reply: %w", err)
	}
	if err := d.probe.run(t, m, d.rsp.rt); err != nil {
		return err
	}
	t.begin(lExtract)
	p, err = d.a.extractResp(got)
	t.end()
	if err != nil {
		return fmt.Errorf("extract reply: %w", err)
	}
	t.begin(lVerify)
	okP := d.a.equalResp(p, d.want)
	t.end()
	if !okQ || !okP {
		return errMismatch
	}
	return nil
}

// prober re-runs, on sampled exchanges of the traced run, the wire
// layer's serialize and parse on a message just sent (same message, same
// dialect graph), and a raw payload round trip on the transport below
// the session when the caller has one: costs the session calls cannot
// expose separately.
type prober struct {
	buf []byte
	rng *rng.R
}

func newProber() *prober { return &prober{rng: rng.New(1)} }

func (p *prober) run(t *tracer, m *msgtree.Message, rt func([]byte) error) error {
	if !t.probing() {
		return nil
	}
	t.begin(lSerialize)
	out, err := wire.SerializeAppend(m, p.buf[:0])
	t.end()
	if err != nil {
		return fmt.Errorf("probe serialize: %w", err)
	}
	p.buf = out
	t.wireMsgs++
	t.wireBytes += int64(len(out))
	t.begin(lParse)
	_, err = wire.Parse(m.G, out, p.rng)
	t.end()
	if err != nil {
		return fmt.Errorf("probe parse: %w", err)
	}
	if rt == nil {
		return nil
	}
	t.begin(lPayloadRT)
	err = rt(out)
	t.end()
	if err != nil {
		return fmt.Errorf("probe payload round trip: %w", err)
	}
	return nil
}

func (d *inlineDriver[Q, P]) cross(k int, t *tracer) (int64, error) {
	if d.rekeyEvery > 0 && k%d.rekeyEvery == 1 {
		return d.rekey(k, t)
	}
	t.begin(lBoundary)
	start := nanotime()
	d.epoch++
	var err error
	for _, c := range []conn{d.req.tx, d.req.rx, d.rsp.tx, d.rsp.rx} {
		if err = c.Advance(d.epoch); err != nil {
			break
		}
	}
	step := nanotime() - start
	t.end()
	if err != nil {
		return step, fmt.Errorf("advance to epoch %d: %w", d.epoch, err)
	}
	return step, d.exchange(t)
}

// rekey switches both dialect families to fresh master seeds from the
// next epoch on. The sending sessions propose; the receiving peers
// handle the proposals (compile the new family's first dialect, ack,
// advance) while receiving the exchange's messages; then each proposer
// collects its ack with one Recv, which returns errDrained once nothing
// else is buffered.
func (d *inlineDriver[Q, P]) rekey(k int, t *tracer) (int64, error) {
	t.begin(lRekey)
	start := nanotime()
	err := d.rekeyExchange(k, t)
	step := nanotime() - start
	t.end()
	return step, err
}

func (d *inlineDriver[Q, P]) rekeyExchange(k int, t *tracer) error {
	from := d.epoch + 1
	for i, s := range d.proposers {
		got, err := s.Rekey(d.rekeySeed(k, i))
		if err != nil {
			return fmt.Errorf("propose rekey: %w", err)
		}
		if got != from {
			return fmt.Errorf("rekey proposed for epoch %d, want %d", got, from)
		}
	}
	if err := d.exchange(t); err != nil {
		return err
	}
	for _, s := range d.proposers {
		if _, err := s.Recv(); !errors.Is(err, errDrained) {
			return fmt.Errorf("collect rekey ack: %v", err)
		}
	}
	for _, s := range d.sessions {
		if s.Epoch() != from {
			return fmt.Errorf("rekey to epoch %d left a session at epoch %d", from, s.Epoch())
		}
	}
	d.epoch = from
	return nil
}

// tcpDriver is the client of one loopback TCP connection pair: requests
// go out on one connection (request dialect family), replies come back
// on the other (reply family). Its server runs in serveTCP on its own
// goroutine.
type tcpDriver[Q, P any] struct {
	a          *app[Q, P]
	gen        generator[Q, P]
	cReq, cRsp *protoobf.Session
	probe      *prober
	q          Q
	want       P
}

func (d *tcpDriver[Q, P]) prepare() { d.q, d.want = d.gen.next() }

func (d *tcpDriver[Q, P]) wireBytes() int64 {
	return int64(d.cReq.BytesMoved() + d.cRsp.BytesMoved())
}

func (d *tcpDriver[Q, P]) exchange(t *tracer) error {
	m, err := compose(t, d.cReq, d.q, d.a.buildReq)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	if err := send(t, lSend, d.cReq, m); err != nil {
		return fmt.Errorf("send request: %w", err)
	}
	if err := d.probe.run(t, m, nil); err != nil {
		return err
	}
	got, err := recv(t, lRecv, d.cRsp)
	if err != nil {
		return fmt.Errorf("receive reply: %w", err)
	}
	t.begin(lExtract)
	p, err := d.a.extractResp(got)
	t.end()
	if err != nil {
		return fmt.Errorf("extract reply: %w", err)
	}
	t.begin(lVerify)
	ok := d.a.equalResp(p, d.want)
	t.end()
	if !ok {
		return errMismatch
	}
	return nil
}

// cross rotates the request session; the server mirrors the request's
// epoch onto its reply session, and the client's reply session follows.
func (d *tcpDriver[Q, P]) cross(k int, t *tracer) (int64, error) {
	t.begin(lBoundary)
	start := nanotime()
	_, err := d.cReq.Rotate()
	step := nanotime() - start
	t.end()
	if err != nil {
		return step, fmt.Errorf("rotate: %w", err)
	}
	return step, d.exchange(t)
}

// serveTCP answers requests until the client closes its connection. The
// reply session mirrors the request session's epoch, so the client
// steps epochs on its own. The handling of the k-th request (from its
// Recv returning to its reply's Send returning) is a root span of
// exchange k (the hello is exchange 0); the wait for the request is not
// recorded, as it holds the client's own work.
func serveTCP[Q, P any](a *app[Q, P], sReq, sRsp *protoobf.Session, t *tracer) error {
	respond := a.newServer()
	probe := newProber()
	for k := uint64(0); ; k++ {
		got, err := sReq.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("receive request: %w", err)
		}
		t.open(k)
		t.begin(lServerHandle)
		err = serveOne(a, respond, probe, sReq, sRsp, got, t)
		t.end()
		t.close()
		if err != nil {
			return err
		}
	}
}

func serveOne[Q, P any](a *app[Q, P], respond func(Q) P, probe *prober, sReq, sRsp *protoobf.Session, got *msgtree.Message, t *tracer) error {
	if e := sReq.Epoch(); e > sRsp.Epoch() {
		if err := sRsp.Advance(e); err != nil {
			return fmt.Errorf("mirror epoch %d: %w", e, err)
		}
	}
	t.begin(lExtract)
	q, err := a.extractReq(got)
	t.end()
	if err != nil {
		return fmt.Errorf("extract request: %w", err)
	}
	t.begin(lRespond)
	p := respond(q)
	t.end()
	m, err := compose(t, sRsp, p, a.buildResp)
	if err != nil {
		return fmt.Errorf("build reply: %w", err)
	}
	if err := send(t, lSend, sRsp, m); err != nil {
		return fmt.Errorf("send reply: %w", err)
	}
	return probe.run(t, m, nil)
}
