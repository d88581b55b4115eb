// Modbus over TCP with an obfuscated protocol: the paper's §VII core
// application on the public Endpoint API. Requests and responses are two
// message formats, so the client and the server share one endpoint per
// format, both built from the same Options: they speak the same
// transformed dialect, and a network observer sees none of the plain
// TCP-Modbus structure. Each direction runs over its own loopback
// connection.
package main

import (
	"context"
	"fmt"
	"log"

	"protoobf"
	"protoobf/internal/protocols/modbus"
	"protoobf/internal/rng"
	"protoobf/internal/wire"
)

func main() {
	opts := protoobf.Options{PerNode: 2, Seed: 7}
	reqEp, err := protoobf.NewEndpoint(modbus.RequestSpec, opts)
	check(err)
	rspEp, err := protoobf.NewEndpoint(modbus.ResponseSpec, opts)
	check(err)
	reqV, err := reqEp.Version(0)
	check(err)
	rspV, err := rspEp.Version(0)
	check(err)
	fmt.Printf("request graph: %d -> %d nodes (%d transformations)\n",
		reqV.Original.NodeCount(), reqV.Graph.NodeCount(), len(reqV.Applied))
	fmt.Printf("response graph: %d -> %d nodes (%d transformations)\n",
		rspV.Original.NodeCount(), rspV.Graph.NodeCount(), len(rspV.Applied))

	lnReq, err := reqEp.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer lnReq.Close()
	lnRsp, err := rspEp.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer lnRsp.Close()
	fmt.Println("obfuscated modbus server: requests on", lnReq.Addr(), "responses on", lnRsp.Addr())

	ctx := context.Background()
	cReq, err := reqEp.Dial(ctx, "tcp", lnReq.Addr().String())
	check(err)
	defer cReq.Close()
	sReq, err := lnReq.Accept()
	check(err)
	defer sReq.Close()
	cRsp, err := rspEp.Dial(ctx, "tcp", lnRsp.Addr().String())
	check(err)
	defer cRsp.Close()
	sRsp, err := lnRsp.Accept()
	check(err)
	defer sRsp.Close()
	go serve(sReq, sRsp, modbus.NewBank())

	do := func(q modbus.Request) modbus.Response {
		m, err := cReq.NewMessage()
		check(err)
		m, err = modbus.BuildRequest(m.G, m.Rng, q)
		check(err)
		check(cReq.Send(m))
		back, err := cRsp.Recv()
		check(err)
		p, err := modbus.ExtractResponse(back)
		check(err)
		if p.TxID != q.TxID {
			log.Fatalf("transaction %d answered as %d", q.TxID, p.TxID)
		}
		return p
	}

	// Write three holding registers, then read them back.
	do(modbus.Request{TxID: 1, Unit: 1, Fc: modbus.FcWriteRegs, Addr: 100, Regs: []uint16{11, 22, 33}})
	resp := do(modbus.Request{TxID: 2, Unit: 1, Fc: modbus.FcReadHolding, Addr: 100, Qty: 3})
	fmt.Println("read holding 100..102 =", resp.Regs)

	// Set a coil and read it.
	do(modbus.Request{TxID: 3, Unit: 1, Fc: modbus.FcWriteCoil, Addr: 8, Val: 0xFF00})
	resp = do(modbus.Request{TxID: 4, Unit: 1, Fc: modbus.FcReadCoils, Addr: 8, Qty: 1})
	fmt.Printf("coil 8 = %d\n", resp.Bits[0]&1)

	// Show what actually travels on the wire vs the plain encoding.
	req := modbus.Request{TxID: 5, Unit: 1, Fc: modbus.FcReadHolding, Addr: 0x6B, Qty: 3}
	plainMsg, err := modbus.BuildRequest(reqV.Original, rng.New(3), req)
	check(err)
	plainWire, err := wire.Serialize(plainMsg)
	check(err)
	obfMsg, err := modbus.BuildRequest(reqV.Graph, rng.New(3), req)
	check(err)
	obfWire, err := wire.Serialize(obfMsg)
	check(err)
	fmt.Printf("\nplain request      (%2d bytes): %x\n", len(plainWire), plainWire)
	fmt.Printf("obfuscated request (%2d bytes): %x\n", len(obfWire), obfWire)
}

// serve answers every request on sReq from bank, replying on sRsp,
// until the client hangs up.
func serve(sReq, sRsp *protoobf.Session, bank *modbus.Bank) {
	for {
		got, err := sReq.Recv()
		if err != nil {
			return
		}
		q, err := modbus.ExtractRequest(got)
		check(err)
		m, err := sRsp.NewMessage()
		check(err)
		m, err = modbus.BuildResponse(m.G, m.Rng, modbus.RespondTo(q, bank))
		check(err)
		check(sRsp.Send(m))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
