package httpmsg

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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

// TestPlainWireFormat pins the non-obfuscated serialization to real HTTP.
func TestPlainWireFormat(t *testing.T) {
	g, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	req := Request{
		Method: "GET", URI: "/index.html", Version: "HTTP/1.1",
		Headers: []Header{{"Host", "example.com"}, {"Accept", "text/html"}},
	}
	m, err := BuildRequest(g, r, req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := "GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: text/html\r\n\r\n"
	if string(data) != want {
		t.Fatalf("wire = %q, want %q", data, want)
	}

	// POST with body.
	req = Request{
		Method: "POST", URI: "/submit", Version: "HTTP/1.1",
		Headers: []Header{{"Host", "example.com"}},
		Body:    []byte("a=1&b=2"),
	}
	m, err = BuildRequest(g, r, req)
	if err != nil {
		t.Fatal(err)
	}
	data, err = wire.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	want = "POST /submit HTTP/1.1\r\nHost: example.com\r\n\r\na=1&b=2"
	if string(data) != want {
		t.Fatalf("wire = %q, want %q", data, want)
	}
}

func TestResponseWireFormat(t *testing.T) {
	g, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	resp := Response{
		Version: "HTTP/1.1", Status: 200, Reason: "OK",
		Headers: []Header{{"Server", "protoobf/1.0"}},
		Body:    []byte("hello"),
	}
	m, err := BuildResponse(g, r, resp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.Serialize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := "HTTP/1.1 200 OK\r\nServer: protoobf/1.0\r\n\r\nhello"
	if string(data) != want {
		t.Fatalf("wire = %q, want %q", data, want)
	}
}

func normalizeReq(r Request) Request {
	if len(r.Headers) == 0 {
		r.Headers = nil
	}
	if len(r.Body) == 0 {
		r.Body = nil
	}
	return r
}

func normalizeResp(r Response) Response {
	if len(r.Headers) == 0 {
		r.Headers = nil
	}
	if len(r.Body) == 0 {
		r.Body = nil
	}
	return r
}

func TestRoundTripPlain(t *testing.T) {
	reqG, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	respG, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		req := RandomRequest(r)
		m, err := BuildRequest(reqG, r, req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Parse(reqG, data, r)
		if err != nil {
			t.Fatalf("parse %q: %v", data, err)
		}
		got, err := ExtractRequest(back)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
			t.Fatalf("request mismatch:\n in %+v\nout %+v", req, got)
		}

		resp := RandomResponse(r)
		rm, err := BuildResponse(respG, r, resp)
		if err != nil {
			t.Fatal(err)
		}
		rdata, err := wire.Serialize(rm)
		if err != nil {
			t.Fatal(err)
		}
		rback, err := wire.Parse(respG, rdata, r)
		if err != nil {
			t.Fatalf("parse %q: %v", rdata, err)
		}
		rgot, err := ExtractResponse(rback)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(rgot)) {
			t.Fatalf("response mismatch:\n in %+v\nout %+v", resp, rgot)
		}
	}
}

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
			r := rng.New(int64(200 + perNode))
			reqRes, err := transform.Obfuscate(reqG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			respRes, err := transform.Obfuscate(respG, transform.Options{PerNode: perNode}, r)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				req := RandomRequest(r)
				m, err := BuildRequest(reqRes.Graph, r, req)
				if err != nil {
					t.Fatalf("build: %v\ntrace:\n%s", err, reqRes.Trace())
				}
				data, err := wire.Serialize(m)
				if err != nil {
					t.Fatalf("serialize: %v\ntrace:\n%s", err, reqRes.Trace())
				}
				back, err := wire.Parse(reqRes.Graph, data, r)
				if err != nil {
					t.Fatalf("parse: %v\ntrace:\n%s", err, reqRes.Trace())
				}
				got, err := ExtractRequest(back)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
					t.Fatalf("request mismatch:\n in %+v\nout %+v\ntrace:\n%s", req, got, reqRes.Trace())
				}

				resp := RandomResponse(r)
				rm, err := BuildResponse(respRes.Graph, r, resp)
				if err != nil {
					t.Fatalf("resp build: %v\ntrace:\n%s", err, respRes.Trace())
				}
				rdata, err := wire.Serialize(rm)
				if err != nil {
					t.Fatalf("resp serialize: %v\ntrace:\n%s", err, respRes.Trace())
				}
				rback, err := wire.Parse(respRes.Graph, rdata, r)
				if err != nil {
					t.Fatalf("resp parse: %v\ntrace:\n%s", err, respRes.Trace())
				}
				rgot, err := ExtractResponse(rback)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(rgot)) {
					t.Fatalf("response mismatch:\n in %+v\nout %+v", resp, rgot)
				}
			}
		})
	}
}

// TestObfuscatedWireHidesKeywords: with one obfuscation per node, the
// GET keyword region should usually not survive verbatim at the start of
// the message (classification challenge of table II). We require that at
// least one of several seeds moves or transforms it.
func TestObfuscatedWireHidesKeywords(t *testing.T) {
	reqG, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for seed := int64(0); seed < 5 && !moved; seed++ {
		r := rng.New(300 + seed)
		res, err := transform.Obfuscate(reqG, transform.Options{PerNode: 1}, r)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Method: "GET", URI: "/x", Version: "HTTP/1.1",
			Headers: []Header{{"Host", "h"}}}
		m, err := BuildRequest(res.Graph, r, req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := wire.Serialize(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("GET ")) {
			moved = true
		}
	}
	if !moved {
		t.Error("across 5 seeds, the obfuscated request always starts with the plain method keyword")
	}
}

// exchange runs one request/response exchange in process, through the
// wire bytes both ways: the client builds and serializes the request,
// the server parses and extracts it and answers with RespondTo, and the
// client parses and extracts the reply.
func exchange(reqG, respG *graph.Graph, cli, srv *rng.R, req Request) (Response, error) {
	m, err := BuildRequest(reqG, cli, req)
	if err != nil {
		return Response{}, err
	}
	data, err := wire.Serialize(m)
	if err != nil {
		return Response{}, err
	}
	got, err := wire.Parse(reqG, data, srv)
	if err != nil {
		return Response{}, fmt.Errorf("parse request: %w", err)
	}
	q, err := ExtractRequest(got)
	if err != nil {
		return Response{}, fmt.Errorf("extract request: %w", err)
	}
	out, err := BuildResponse(respG, srv, RespondTo(q))
	if err != nil {
		return Response{}, fmt.Errorf("build response: %w", err)
	}
	if data, err = wire.Serialize(out); err != nil {
		return Response{}, err
	}
	back, err := wire.Parse(respG, data, cli)
	if err != nil {
		return Response{}, err
	}
	return ExtractResponse(back)
}

// TestClientServerExchange runs the HTTP core application, client and
// server, with an obfuscated protocol.
func TestClientServerExchange(t *testing.T) {
	reqG, err := RequestGraph()
	if err != nil {
		t.Fatal(err)
	}
	respG, err := ResponseGraph()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	reqRes, err := transform.Obfuscate(reqG, transform.Options{PerNode: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	respRes, err := transform.Obfuscate(respG, transform.Options{PerNode: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := rng.New(2), rng.New(1)
	do := func(req Request) (Response, error) {
		return exchange(reqRes.Graph, respRes.Graph, cli, srv, req)
	}

	resp, err := do(Request{Method: "GET", URI: "/api/v1/items", Version: "HTTP/1.1",
		Headers: []Header{{"Host", "example.com"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "items") {
		t.Fatalf("GET /api -> %d %q", resp.Status, resp.Body)
	}
	resp, err = do(Request{Method: "POST", URI: "/submit", Version: "HTTP/1.1",
		Headers: []Header{{"Host", "example.com"}}, Body: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 201 || !strings.Contains(string(resp.Body), "3 bytes") {
		t.Fatalf("POST -> %d %q", resp.Status, resp.Body)
	}
	resp, err = do(Request{Method: "GET", URI: "/missing", Version: "HTTP/1.1",
		Headers: []Header{{"Host", "example.com"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("GET /missing -> %d", resp.Status)
	}
}
