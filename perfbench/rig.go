package main

import (
	"context"
	"fmt"
	"sync"

	"protoobf"
)

// transport is how a workload's session pairs are connected.
type transport int

const (
	inlineStream transport = iota // protoobf sessions over an inline pipe, one goroutine
	inlinePacket                  // zero-overhead packet sessions over protoobf.PacketPipe, one goroutine
	loopbackTCP                   // Endpoint.Listen/Dial over loopback TCP, a server goroutine per pair
)

// perNode is the obfuscation level of every workload: the middle of the
// paper's 0..4 range.
const perNode = 2

// rig is one set-up world: the endpoints (client and server side of the
// request and the reply family), the driver and its tracers.
type rig struct {
	eps    []*protoobf.Endpoint
	driver driver
	// client records the driver; server the TCP workload's server
	// goroutine (nil on inline workloads).
	client *tracer
	server *tracer
	// probe builds a fresh inline pair on the rig's endpoints for the
	// allocation probe, which must run alone in the process.
	probe func(seed int64) (driver, func(), error)

	closers  []func()
	serveWG  sync.WaitGroup
	serveMu  sync.Mutex
	serveErr error

	times setupTimes
}

// setupTimes splits one set-up into its parts, in ns.
type setupTimes struct {
	total, endpointNew, warm, connect int64
	endpoints, conns                  int
}

func (r *rig) close() error {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.serveWG.Wait()
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	return r.serveErr
}

func (r *rig) tracers() []*tracer {
	if r.server == nil {
		return []*tracer{r.client}
	}
	return []*tracer{r.client, r.server}
}

// buildRig sets a workload up from nothing: endpoints, dialect warming,
// sessions or connections, and one verified hello exchange.
// Everything in it is deterministic work: no accept loop, timer or
// schedule is waited on.
func buildRig[Q, P any](a *app[Q, P], w workload, p plan, cfg config) (r *rig, err error) {
	r = &rig{}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	start := nanotime()
	opts := protoobf.Options{PerNode: perNode, Seed: w.familySeed}
	var eopts []protoobf.Option
	if w.warm {
		// Every warmed dialect must stay cached for the whole run.
		eopts = append(eopts, protoobf.WithVersionCache(-1, 0))
	}
	// The client and the server of a family have an endpoint each, so
	// every boundary of modbus-rekey compiles on both peers. A warmed
	// workload's peers share one endpoint per family: a second warmed
	// copy of the same dialects would double set-up and measure nothing
	// the first does not.
	specs := []string{a.reqSpec, a.reqSpec, a.respSpec, a.respSpec}
	if w.warm {
		specs = []string{a.reqSpec, a.respSpec}
	}
	t := nanotime()
	for _, spec := range specs {
		ep, err := protoobf.NewEndpoint(spec, opts, eopts...)
		if err != nil {
			return nil, fmt.Errorf("new endpoint: %w", err)
		}
		r.eps = append(r.eps, ep)
	}
	r.times.endpointNew, r.times.endpoints = nanotime()-t, len(r.eps)

	if w.warm {
		t = nanotime()
		for _, ep := range r.eps {
			for e := uint64(0); e <= p.lastEpoch; e++ {
				if _, err := ep.Version(e); err != nil {
					return nil, fmt.Errorf("warm epoch %d: %w", e, err)
				}
			}
		}
		r.times.warm = nanotime() - t
	}

	cliReq, srvReq, cliRsp, srvRsp := r.eps[0], r.eps[0], r.eps[1], r.eps[1]
	if !w.warm {
		srvReq, cliRsp, srvRsp = r.eps[1], r.eps[2], r.eps[3]
	}
	var lnReq, lnRsp *protoobf.Listener
	if w.transport == loopbackTCP {
		t = nanotime()
		if lnReq, err = srvReq.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		r.closers = append(r.closers, func() { lnReq.Close() })
		if lnRsp, err = srvRsp.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		r.closers = append(r.closers, func() { lnRsp.Close() })
		r.times.connect += nanotime() - t
	}
	gen := a.newGen(cfg.seed, 0)
	if w.transport == loopbackTCP {
		t = nanotime()
		td, err := connectTCP(r, a, lnReq, lnRsp, cliReq, cliRsp, gen, cfg)
		r.times.connect += nanotime() - t
		r.times.conns += 2
		if err != nil {
			return nil, fmt.Errorf("connect: %w", err)
		}
		r.driver = td
	} else {
		id, closeFn, err := newInlineDriver(a, w, cliReq, srvReq, cliRsp, srvRsp, gen)
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, closeFn)
		r.driver = id
	}
	if err := hello(a, r.driver); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	r.client = newTracer(cfg.trace, cfg.t0, 0)
	r.probe = func(seed int64) (driver, func(), error) {
		pw := w
		pw.rekeyEvery = 0
		if pw.transport == loopbackTCP {
			pw.transport = inlineStream
		}
		d, closeFn, err := newInlineDriver(a, pw, cliReq, srvReq, cliRsp, srvRsp, a.newGen(seed, 1<<20))
		if err != nil {
			return nil, nil, err
		}
		if err := hello(a, d); err != nil {
			closeFn()
			return nil, nil, fmt.Errorf("probe hello: %w", err)
		}
		return d, closeFn, nil
	}
	r.times.total = nanotime() - start
	return r, nil
}

// hello runs the app's fixed first exchange, untraced.
func hello[Q, P any](a *app[Q, P], d driver) error {
	q, p := a.hello()
	switch d := d.(type) {
	case *inlineDriver[Q, P]:
		d.q, d.want = q, p
	case *tcpDriver[Q, P]:
		d.q, d.want = q, p
	}
	return d.exchange(untraced)
}

// newInlineDriver opens a driver's four sessions: a request pair and a
// reply pair, each over its own inline stream or packet pipe.
func newInlineDriver[Q, P any](a *app[Q, P], w workload, cliReq, srvReq, cliRsp, srvRsp *protoobf.Endpoint, gen generator[Q, P]) (*inlineDriver[Q, P], func(), error) {
	d := &inlineDriver[Q, P]{
		a:          a,
		gen:        gen,
		respond:    a.newServer(),
		probe:      newProber(),
		rekeyEvery: w.rekeyEvery,
		rekeySeed: func(k, leg int) int64 {
			return mix(w.familySeed, int64(k)<<1|int64(leg))
		},
	}
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	if w.transport == inlinePacket {
		d.sendL, d.recvL = lDgramSend, lDgramRecv
		open := func(tx, rx *protoobf.Endpoint) (leg, error) {
			x, y := protoobf.PacketPipe()
			cx, cy := &countingPacket{ReadWriteCloser: x}, &countingPacket{ReadWriteCloser: y}
			zo := protoobf.WithZeroOverhead(true)
			s, err := tx.PacketSession(cx, zo)
			if err != nil {
				return leg{}, err
			}
			closers = append(closers, func() { s.Close() })
			r, err := rx.PacketSession(cy, zo)
			if err != nil {
				return leg{}, err
			}
			closers = append(closers, func() { r.Close() })
			buf := make([]byte, 64<<10)
			return leg{
				tx: s, rx: r,
				rt: func(payload []byte) error {
					if _, err := x.Write(payload); err != nil {
						return err
					}
					_, err := y.Read(buf)
					return err
				},
				bytes: func() int64 { return cx.written + cy.written },
			}, nil
		}
		var err error
		if d.req, err = open(cliReq, srvReq); err == nil {
			d.rsp, err = open(srvRsp, cliRsp)
		}
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("packet session: %w", err)
		}
		return d, closeAll, nil
	}

	d.sendL, d.recvL = lSend, lRecv
	open := func(tx, rx *protoobf.Endpoint) (leg, *protoobf.Session, *protoobf.Session, error) {
		x, y := newInlineDuplex()
		s, err := tx.Session(x)
		if err != nil {
			return leg{}, nil, nil, err
		}
		closers = append(closers, func() { s.Close() })
		r, err := rx.Session(y)
		if err != nil {
			return leg{}, nil, nil, err
		}
		closers = append(closers, func() { r.Close() })
		var buf []byte
		return leg{
			tx: s, rx: r,
			rt: func(payload []byte) error {
				if err := s.Transport().SendPayload(payload); err != nil {
					return err
				}
				var err error
				buf, _, err = r.Transport().RecvPayload(buf[:0])
				return err
			},
			bytes: func() int64 { return x.w.written + y.w.written },
		}, s, r, nil
	}
	var err error
	var cReq, sReq, sRsp, cRsp *protoobf.Session
	if d.req, cReq, sReq, err = open(cliReq, srvReq); err == nil {
		d.rsp, sRsp, cRsp, err = open(srvRsp, cliRsp)
	}
	if err != nil {
		closeAll()
		return nil, nil, fmt.Errorf("session: %w", err)
	}
	d.proposers = [2]*protoobf.Session{cReq, sRsp}
	d.sessions = [4]*protoobf.Session{cReq, sReq, sRsp, cRsp}
	return d, closeAll, nil
}

// connectTCP dials the driver's request and reply connections, accepts
// each on the server side and starts the pair's server goroutine.
func connectTCP[Q, P any](r *rig, a *app[Q, P], lnReq, lnRsp *protoobf.Listener, cliReq, cliRsp *protoobf.Endpoint, gen generator[Q, P], cfg config) (*tcpDriver[Q, P], error) {
	ctx := context.Background()
	d := &tcpDriver[Q, P]{a: a, gen: gen, probe: newProber()}
	var err error
	var sReq, sRsp *protoobf.Session
	if d.cReq, err = cliReq.Dial(ctx, "tcp", lnReq.Addr().String()); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { d.cReq.Close() })
	if sReq, err = lnReq.Accept(); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { sReq.Close() })
	if d.cRsp, err = cliRsp.Dial(ctx, "tcp", lnRsp.Addr().String()); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { d.cRsp.Close() })
	if sRsp, err = lnRsp.Accept(); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { sRsp.Close() })

	r.server = newTracer(cfg.trace, cfg.t0, serverSpanBase)
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		if err := serveTCP(a, sReq, sRsp, r.server); err != nil {
			r.serveMu.Lock()
			if r.serveErr == nil {
				r.serveErr = fmt.Errorf("server: %w", err)
			}
			r.serveMu.Unlock()
			// Unblock the client, which is waiting for a reply.
			sReq.Close()
			sRsp.Close()
		}
	}()
	return d, nil
}
