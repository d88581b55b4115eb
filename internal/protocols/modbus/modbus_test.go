package modbus

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"protoobf/internal/graph"
	"protoobf/internal/rng"
	"protoobf/internal/transform"
	"protoobf/internal/wire"
)

func TestSpecsParse(t *testing.T) {
	if _, err := RequestGraph(); err != nil {
		t.Fatalf("request spec: %v", err)
	}
	if _, err := ResponseGraph(); err != nil {
		t.Fatalf("response spec: %v", err)
	}
}

// TestPlainWireFormat pins the non-obfuscated serialization to the real
// Modbus TCP layout (the paper's figure 3 shows exactly this shape).
func TestPlainWireFormat(t *testing.T) {
	g, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)

	// Read Holding Registers: fc 3, addr 0x006B, qty 3.
	m, err := BuildRequest(g, r, Request{TxID: 0x0001, Unit: 0x11, Fc: 3, Addr: 0x006B, Qty: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x11, 0x03, 0x00, 0x6B, 0x00, 0x03}
	if !bytes.Equal(data, want) {
		t.Fatalf("fc3 wire = %x, want %x", data, want)
	}

	// Write Multiple Registers: fc 16, addr 1, regs {0x000A, 0x0102}.
	m, err = BuildRequest(g, r, Request{TxID: 2, Unit: 1, Fc: 16, Addr: 1, Regs: []uint16{0x000A, 0x0102}})
	if err != nil {
		t.Fatal(err)
	}
	data, err = wire.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	want = []byte{
		0x00, 0x02, 0x00, 0x00, 0x00, 0x0B, 0x01, 0x10,
		0x00, 0x01, 0x00, 0x02, 0x04, 0x00, 0x0A, 0x01, 0x02,
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("fc16 wire = %x, want %x", data, want)
	}
}

func TestRequestRoundTripAllCodes(t *testing.T) {
	g, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for _, fc := range FunctionCodes {
		for trial := 0; trial < 10; trial++ {
			req := RandomRequest(r)
			req.Fc = fc
			fixupRequest(&req, r)
			m, err := BuildRequest(g, r, req)
			if err != nil {
				t.Fatalf("fc%d build: %v", fc, err)
			}
			data, err := wire.Serialize(m)
			if err != nil {
				t.Fatalf("fc%d serialize: %v", fc, err)
			}
			back, err := wire.Parse(g, data, r)
			if err != nil {
				t.Fatalf("fc%d parse: %v", fc, err)
			}
			got, err := ExtractRequest(back)
			if err != nil {
				t.Fatalf("fc%d extract: %v", fc, err)
			}
			if !reflect.DeepEqual(normReq(req), normReq(got)) {
				t.Fatalf("fc%d mismatch:\n in %+v\nout %+v", fc, req, got)
			}
		}
	}
}

// fixupRequest regenerates the payload fields after forcing a function
// code onto a randomly drawn request.
func fixupRequest(req *Request, r *rng.R) {
	req.Coils, req.Regs, req.Qty, req.Val = nil, nil, 0, 0
	switch req.Fc {
	case FcReadCoils, FcReadDiscrete, FcReadHolding, FcReadInput:
		req.Qty = uint16(1 + r.Intn(100))
	case FcWriteCoil:
		req.Val = 0xFF00
	case FcWriteReg:
		req.Val = uint16(r.Intn(1 << 16))
	case FcWriteCoils:
		n := 1 + r.Intn(32)
		req.Qty = uint16(n)
		req.Coils = r.Bytes((n + 7) / 8)
	case FcWriteRegs:
		req.Regs = make([]uint16, 1+r.Intn(8))
		for i := range req.Regs {
			req.Regs[i] = uint16(r.Intn(1 << 16))
		}
	}
}

func normReq(r Request) Request {
	if len(r.Coils) == 0 {
		r.Coils = nil
	}
	if len(r.Regs) == 0 {
		r.Regs = nil
	}
	return r
}

func normResp(r Response) Response {
	if len(r.Bits) == 0 {
		r.Bits = nil
	}
	if len(r.Regs) == 0 {
		r.Regs = nil
	}
	return r
}

func TestResponseRoundTripAllCodes(t *testing.T) {
	g, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	bank := NewBank()
	bank.WriteRegs(0, []uint16{1, 2, 3, 0xFFFF})
	bank.WriteBit(2, true)
	for _, fc := range FunctionCodes {
		req := RandomRequest(r)
		req.Fc = fc
		fixupRequest(&req, r)
		resp := RespondTo(req, bank)
		m, err := BuildResponse(g, r, resp)
		if err != nil {
			t.Fatalf("fc%d build: %v", fc, err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			t.Fatalf("fc%d serialize: %v", fc, err)
		}
		back, err := wire.Parse(g, data, r)
		if err != nil {
			t.Fatalf("fc%d parse: %v", fc, err)
		}
		got, err := ExtractResponse(back)
		if err != nil {
			t.Fatalf("fc%d extract: %v", fc, err)
		}
		if !reflect.DeepEqual(normResp(resp), normResp(got)) {
			t.Fatalf("fc%d mismatch:\n in %+v\nout %+v", fc, resp, got)
		}
	}
}

// TestObfuscatedRoundTrip runs every function code through obfuscated
// request and response graphs at 1..3 transformations per node.
func TestObfuscatedRoundTrip(t *testing.T) {
	for perNode := 1; perNode <= 3; perNode++ {
		perNode := perNode
		t.Run(fmt.Sprintf("perNode=%d", perNode), func(t *testing.T) {
			reqG, err := RequestGraph()
			if err != nil {
				t.Fatal(err)
			}
			respG, err := ResponseGraph()
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(int64(100 + perNode))
			reqRes, err := transform.Obfuscate(reqG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			respRes, err := transform.Obfuscate(respG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			bank := NewBank()
			bank.WriteRegs(0, []uint16{10, 20, 30})
			for _, fc := range FunctionCodes {
				req := RandomRequest(r)
				req.Fc = fc
				fixupRequest(&req, r)
				m, err := BuildRequest(reqRes.Graph, r, req)
				if err != nil {
					t.Fatalf("fc%d build: %v\ntrace:\n%s", fc, err, reqRes.Trace())
				}
				data, err := wire.Serialize(m)
				if err != nil {
					t.Fatalf("fc%d serialize: %v\ntrace:\n%s", fc, err, reqRes.Trace())
				}
				back, err := wire.Parse(reqRes.Graph, data, r)
				if err != nil {
					t.Fatalf("fc%d parse: %v\ntrace:\n%s", fc, err, reqRes.Trace())
				}
				got, err := ExtractRequest(back)
				if err != nil {
					t.Fatalf("fc%d extract: %v", fc, err)
				}
				if !reflect.DeepEqual(normReq(req), normReq(got)) {
					t.Fatalf("fc%d req mismatch:\n in %+v\nout %+v", fc, req, got)
				}
				resp := RespondTo(req, bank)
				rm, err := BuildResponse(respRes.Graph, r, resp)
				if err != nil {
					t.Fatalf("fc%d resp build: %v\ntrace:\n%s", fc, err, respRes.Trace())
				}
				rdata, err := wire.Serialize(rm)
				if err != nil {
					t.Fatalf("fc%d resp serialize: %v\ntrace:\n%s", fc, err, respRes.Trace())
				}
				rback, err := wire.Parse(respRes.Graph, rdata, r)
				if err != nil {
					t.Fatalf("fc%d resp parse: %v\ntrace:\n%s", fc, err, respRes.Trace())
				}
				rgot, err := ExtractResponse(rback)
				if err != nil {
					t.Fatalf("fc%d resp extract: %v", fc, err)
				}
				if !reflect.DeepEqual(normResp(resp), normResp(rgot)) {
					t.Fatalf("fc%d resp mismatch:\n in %+v\nout %+v", fc, resp, rgot)
				}
			}
		})
	}
}

// exchange runs one request/response exchange in process, through the
// wire bytes both ways: the client builds and serializes the request,
// the server parses and extracts it and answers from bank, and the
// client parses and extracts the reply.
func exchange(reqG, respG *graph.Graph, cli, srv *rng.R, bank *Bank, req Request) (Response, error) {
	var resp Response
	m, err := BuildRequest(reqG, cli, req)
	if err != nil {
		return resp, err
	}
	data, err := wire.Serialize(m)
	if err != nil {
		return resp, err
	}
	got, err := wire.Parse(reqG, data, srv)
	if err != nil {
		return resp, fmt.Errorf("parse request: %w", err)
	}
	q, err := ExtractRequest(got)
	if err != nil {
		return resp, fmt.Errorf("extract request: %w", err)
	}
	out, err := BuildResponse(respG, srv, RespondTo(q, bank))
	if err != nil {
		return resp, fmt.Errorf("build response: %w", err)
	}
	if data, err = wire.Serialize(out); err != nil {
		return resp, err
	}
	back, err := wire.Parse(respG, data, cli)
	if err != nil {
		return resp, err
	}
	if resp, err = ExtractResponse(back); err != nil {
		return resp, err
	}
	if resp.TxID != req.TxID {
		return resp, fmt.Errorf("transaction id %d answered as %d", req.TxID, resp.TxID)
	}
	return resp, nil
}

// TestClientServerExchange runs the full core application, client and
// server over one register bank, with an obfuscated protocol: the
// scenario of the paper's §VII-A.
func TestClientServerExchange(t *testing.T) {
	reqG, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	respG, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	reqRes, err := transform.Obfuscate(reqG, transform.Options{PerNode: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	respRes, err := transform.Obfuscate(respG, transform.Options{PerNode: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv, bank := rng.New(2), rng.New(1), NewBank()
	do := func(req Request) (Response, error) {
		return exchange(reqRes.Graph, respRes.Graph, cli, srv, bank, req)
	}

	// Write then read back registers through the obfuscated channel.
	wr := Request{TxID: 1, Unit: 3, Fc: FcWriteRegs, Addr: 10, Regs: []uint16{111, 222, 333}}
	if _, err := do(wr); err != nil {
		t.Fatalf("write regs: %v", err)
	}
	rd := Request{TxID: 2, Unit: 3, Fc: FcReadHolding, Addr: 10, Qty: 3}
	resp, err := do(rd)
	if err != nil {
		t.Fatalf("read holding: %v", err)
	}
	if !reflect.DeepEqual(resp.Regs, []uint16{111, 222, 333}) {
		t.Fatalf("read back %v, want [111 222 333]", resp.Regs)
	}

	// Coils too.
	if _, err := do(Request{TxID: 3, Unit: 3, Fc: FcWriteCoil, Addr: 5, Val: 0xFF00}); err != nil {
		t.Fatal(err)
	}
	resp, err = do(Request{TxID: 4, Unit: 3, Fc: FcReadCoils, Addr: 5, Qty: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Bits) != 1 || resp.Bits[0]&1 != 1 {
		t.Fatalf("coil read back %x", resp.Bits)
	}
}

func TestBank(t *testing.T) {
	b := NewBank()
	b.WriteBits(0, 10, []byte{0b10101010, 0b11})
	bits := b.ReadBits(0, 10)
	if bits[0] != 0b10101010 || bits[1] != 0b11 {
		t.Errorf("bits = %08b", bits)
	}
	if got := b.ReadBits(1, 1); got[0] != 1 {
		t.Errorf("bit 1 = %v", got)
	}
	b.WriteReg(100, 7)
	if got := b.ReadRegs(99, 3); got[1] != 7 {
		t.Errorf("regs = %v", got)
	}
}

// TestExceptionResponses: malformed requests yield exception responses
// (fc|0x80 + exception code) that round-trip plain and obfuscated.
func TestExceptionResponses(t *testing.T) {
	respG, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	bank := NewBank()
	cases := []Request{
		{TxID: 1, Unit: 1, Fc: FcReadHolding, Addr: 0, Qty: 0},    // zero qty
		{TxID: 2, Unit: 1, Fc: FcReadHolding, Addr: 0, Qty: 1000}, // too many
		{TxID: 3, Unit: 1, Fc: FcWriteCoil, Addr: 0, Val: 0x1234}, // bad coil value
		{TxID: 4, Unit: 1, Fc: FcWriteRegs, Addr: 0},              // no registers
		{TxID: 5, Unit: 1, Fc: FcWriteCoils, Qty: 9, Coils: nil},  // count mismatch
	}
	r := rng.New(31)
	for _, req := range cases {
		resp := RespondTo(req, bank)
		if !resp.IsException() {
			t.Fatalf("fc%d request %+v not rejected", req.Fc, req)
		}
		if resp.Fc != req.Fc|0x80 || resp.ExCode != ExIllegalValue {
			t.Fatalf("exception = %+v", resp)
		}
		m, err := BuildResponse(respG, r, resp)
		if err != nil {
			t.Fatalf("build exception: %v", err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Parse(respG, data, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtractResponse(back)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fc != resp.Fc || got.ExCode != resp.ExCode || got.TxID != resp.TxID {
			t.Fatalf("exception round trip: %+v vs %+v", resp, got)
		}
	}
}

// TestExceptionOverObfuscated: the server rejects a bad request with an
// exception through the obfuscated channel.
func TestExceptionOverObfuscated(t *testing.T) {
	reqG, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	respG, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(55)
	reqRes, err := transform.Obfuscate(reqG, transform.Options{PerNode: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	respRes, err := transform.Obfuscate(respG, transform.Options{PerNode: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := exchange(reqRes.Graph, respRes.Graph, rng.New(2), rng.New(1), NewBank(),
		Request{TxID: 9, Unit: 1, Fc: FcReadHolding, Addr: 0, Qty: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsException() || resp.Fc != FcReadHolding|0x80 {
		t.Fatalf("expected exception, got %+v", resp)
	}
}
