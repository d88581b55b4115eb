package main

import (
	"bytes"
	"math/rand"
	"strconv"

	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/protocols/httpmsg"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
)

// app is one request/response application: the paper's two specs
// (Modbus, HTTP), their protocol helpers (Build/Extract, which drive the
// msgtree field setters and getters), a generator that draws requests
// from the workload seed together with the reply the server must give,
// and the server logic. Q is the logical request, P the logical reply.
type app[Q, P any] struct {
	reqSpec, respSpec string
	buildReq          func(*graph.Graph, *rng.R, Q) (*msgtree.Message, error)
	extractReq        func(*msgtree.Message) (Q, error)
	buildResp         func(*graph.Graph, *rng.R, P) (*msgtree.Message, error)
	extractResp       func(*msgtree.Message) (P, error)
	equalReq          func(a, b Q) bool
	equalResp         func(a, b P) bool
	// newGen returns driver d's generator; the same (seed, d) always
	// yields the same request sequence.
	newGen func(seed int64, d int) generator[Q, P]
	// newServer returns fresh server state; respond must be a pure
	// function of that state and the request, so the generator can
	// mirror it.
	newServer func() func(Q) P
	// hello is the fixed exchange set-up uses to prove a pair works; it
	// leaves server state unchanged.
	hello func() (Q, P)
}

// generator draws the next request and the reply the server must give.
type generator[Q, P any] interface {
	next() (Q, P)
}

// --- Modbus ------------------------------------------------------------------

var modbusApp = app[modbus.Request, modbus.Response]{
	reqSpec:     modbus.RequestSpec,
	respSpec:    modbus.ResponseSpec,
	buildReq:    modbus.BuildRequest,
	extractReq:  modbus.ExtractRequest,
	buildResp:   modbus.BuildResponse,
	extractResp: modbus.ExtractResponse,
	equalReq:    equalModbusRequest,
	equalResp:   equalModbusResponse,
	newGen: func(seed int64, d int) generator[modbus.Request, modbus.Response] {
		return &modbusGen{r: rng.New(mix(seed, int64(d))), bank: modbus.NewBank()}
	},
	newServer: func() func(modbus.Request) modbus.Response {
		bank := modbus.NewBank()
		return func(q modbus.Request) modbus.Response { return modbus.RespondTo(q, bank) }
	},
	hello: func() (modbus.Request, modbus.Response) {
		q := modbus.Request{TxID: 1, Unit: 1, Fc: modbus.FcReadHolding, Addr: 0, Qty: 1}
		return q, modbus.RespondTo(q, modbus.NewBank())
	},
}

// modbusGen draws random requests over all function codes and mirrors
// the server's register bank to know each reply in advance.
type modbusGen struct {
	r    *rng.R
	bank *modbus.Bank
}

func (g *modbusGen) next() (modbus.Request, modbus.Response) {
	q := modbus.RandomRequest(g.r)
	return q, modbus.RespondTo(q, g.bank)
}

func equalModbusRequest(a, b modbus.Request) bool {
	return a.TxID == b.TxID && a.Unit == b.Unit && a.Fc == b.Fc && a.Addr == b.Addr &&
		a.Qty == b.Qty && a.Val == b.Val && bytes.Equal(a.Coils, b.Coils) && equalRegs(a.Regs, b.Regs)
}

func equalModbusResponse(a, b modbus.Response) bool {
	return a.TxID == b.TxID && a.Unit == b.Unit && a.Fc == b.Fc && bytes.Equal(a.Bits, b.Bits) &&
		equalRegs(a.Regs, b.Regs) && a.Addr == b.Addr && a.Qty == b.Qty && a.Val == b.Val && a.ExCode == b.ExCode
}

func equalRegs(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- HTTP --------------------------------------------------------------------

// The bulk HTTP workload posts 1–16 KiB bodies with 4–12 headers, and
// the server echoes every header and the body back, so a reply that
// matches the generator's copy proves the request decoded intact too.
const (
	httpMinHeaders = 4
	httpMaxHeaders = 12
	httpMinBody    = 1 << 10
	httpMaxBody    = 16 << 10
	httpBodyPool   = 8
)

var httpApp = app[httpmsg.Request, httpmsg.Response]{
	reqSpec:     httpmsg.RequestSpec,
	respSpec:    httpmsg.ResponseSpec,
	buildReq:    httpmsg.BuildRequest,
	extractReq:  httpmsg.ExtractRequest,
	buildResp:   httpmsg.BuildResponse,
	extractResp: httpmsg.ExtractResponse,
	equalReq:    equalHTTPRequest,
	equalResp:   equalHTTPResponse,
	newGen:      newHTTPGen,
	newServer:   func() func(httpmsg.Request) httpmsg.Response { return httpEcho },
	hello: func() (httpmsg.Request, httpmsg.Response) {
		q := httpmsg.Request{Method: "POST", URI: "/hello", Version: "HTTP/1.1",
			Headers: []httpmsg.Header{{Name: "Host", Value: "bench"}}, Body: []byte("hello")}
		return q, httpEcho(q)
	},
}

// httpGen draws POST requests whose bodies are slices of a fixed pool of
// random alphanumeric blocks, so generation costs next to nothing.
type httpGen struct {
	r      *rand.Rand
	bodies [][]byte
	n      int
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func newHTTPGen(seed int64, d int) generator[httpmsg.Request, httpmsg.Response] {
	g := &httpGen{r: rand.New(rand.NewSource(mix(seed, int64(d))))}
	for i := 0; i < httpBodyPool; i++ {
		b := make([]byte, httpMaxBody)
		for j := range b {
			b[j] = alnum[g.r.Intn(len(alnum))]
		}
		g.bodies = append(g.bodies, b)
	}
	return g
}

var httpHeaderNames = []string{
	"Host", "User-Agent", "Accept", "Accept-Language", "Accept-Encoding", "Cache-Control",
	"Connection", "Content-Type", "Cookie", "Referer", "Origin", "X-Trace",
}

func (g *httpGen) token(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[g.r.Intn(len(alnum))]
	}
	return string(b)
}

func (g *httpGen) next() (httpmsg.Request, httpmsg.Response) {
	g.n++
	q := httpmsg.Request{Method: "POST", URI: "/upload/" + strconv.Itoa(g.n), Version: "HTTP/1.1"}
	nh := httpMinHeaders + g.r.Intn(httpMaxHeaders-httpMinHeaders+1)
	for i := 0; i < nh; i++ {
		q.Headers = append(q.Headers, httpmsg.Header{
			Name:  httpHeaderNames[g.r.Intn(len(httpHeaderNames))],
			Value: g.token(4 + g.r.Intn(28)),
		})
	}
	size := httpMinBody + g.r.Intn(httpMaxBody-httpMinBody+1)
	q.Body = g.bodies[g.r.Intn(len(g.bodies))][:size]
	return q, httpEcho(q)
}

// httpEcho is the bulk server: it answers 200 with the request's URI,
// headers and body echoed back.
func httpEcho(q httpmsg.Request) httpmsg.Response {
	p := httpmsg.Response{Version: "HTTP/1.1", Status: 200, Reason: "OK", Body: q.Body}
	p.Headers = make([]httpmsg.Header, 0, len(q.Headers)+2)
	p.Headers = append(p.Headers, httpmsg.Header{Name: "X-URI", Value: q.URI})
	p.Headers = append(p.Headers, q.Headers...)
	p.Headers = append(p.Headers, httpmsg.Header{Name: "Content-Length", Value: strconv.Itoa(len(q.Body))})
	return p
}

func equalHTTPRequest(a, b httpmsg.Request) bool {
	return a.Method == b.Method && a.URI == b.URI && a.Version == b.Version &&
		equalHeaders(a.Headers, b.Headers) && bytes.Equal(a.Body, b.Body)
}

func equalHTTPResponse(a, b httpmsg.Response) bool {
	return a.Version == b.Version && a.Status == b.Status && a.Reason == b.Reason &&
		equalHeaders(a.Headers, b.Headers) && bytes.Equal(a.Body, b.Body)
}

func equalHeaders(a, b []httpmsg.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mix derives an independent seed from a seed and a stream index.
func mix(seed, stream int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
