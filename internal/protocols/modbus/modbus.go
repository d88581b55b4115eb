// Package modbus provides the TCP-Modbus message-format specification
// used in the paper's evaluation (§VII): the request and response formats
// of function codes 1, 2, 3, 4, 5, 6, 15 and 16 — the message set of the
// simplymodbus client implementation — plus builders and extractors, the
// server logic (RespondTo over a register Bank) and random workload
// generators. The messages travel over protoobf.Endpoint sessions like
// any other spec; examples/modbus-tcp runs them over loopback TCP.
//
// Modbus exercises the binary-protocol side of the model: Tabular fields,
// Length boundaries and Counter boundaries (paper §VII).
package modbus

import (
	"fmt"

	"protoobf/internal/graph"
	"protoobf/internal/msgtree"
	"protoobf/internal/rng"
	"protoobf/internal/spec"
)

// Function codes covered by the core application.
const (
	FcReadCoils    = 1
	FcReadDiscrete = 2
	FcReadHolding  = 3
	FcReadInput    = 4
	FcWriteCoil    = 5
	FcWriteReg     = 6
	FcWriteCoils   = 15
	FcWriteRegs    = 16
)

// FunctionCodes lists the supported codes in protocol order.
var FunctionCodes = []int{
	FcReadCoils, FcReadDiscrete, FcReadHolding, FcReadInput,
	FcWriteCoil, FcWriteReg, FcWriteCoils, FcWriteRegs,
}

// RequestSpec is the message format specification of Modbus TCP requests:
// the MBAP header (transaction, protocol, length, unit) followed by the
// PDU, whose shape depends on the function code.
const RequestSpec = `
protocol modbus_request;
root seq adu end {
    uint txid 2;
    uint proto 2;
    uint mblen 2;                      # auto-filled: bytes following
    seq rest length(mblen) {
        uint unit 1;
        uint fc 1;
        optional read_coils when fc == 1 {
            seq rc { uint rc_addr 2; uint rc_qty 2; }
        }
        optional read_discrete when fc == 2 {
            seq rd { uint rd_addr 2; uint rd_qty 2; }
        }
        optional read_holding when fc == 3 {
            seq rh { uint rh_addr 2; uint rh_qty 2; }
        }
        optional read_input when fc == 4 {
            seq ri { uint ri_addr 2; uint ri_qty 2; }
        }
        optional write_coil when fc == 5 {
            seq wc { uint wc_addr 2; uint wc_val 2; }
        }
        optional write_reg when fc == 6 {
            seq wr { uint wr_addr 2; uint wr_val 2; }
        }
        optional write_coils when fc == 15 {
            seq wcs {
                uint wcs_addr 2;
                uint wcs_qty 2;
                uint wcs_bc 1;          # auto-filled byte count
                seq wcs_data length(wcs_bc) { bytes wcs_bytes end; }
            }
        }
        optional write_regs when fc == 16 {
            seq wrs {
                uint wrs_addr 2;
                uint wrs_qty 2;         # auto-filled register count
                uint wrs_bc 1;          # auto-filled byte count
                seq wrs_data length(wrs_bc) {
                    tabular wrs_regs count(wrs_qty) { uint wrs_reg 2; }
                }
            }
        }
    }
}
`

// ResponseSpec is the message format specification of Modbus TCP
// responses for the same function codes.
const ResponseSpec = `
protocol modbus_response;
root seq adu end {
    uint txid 2;
    uint proto 2;
    uint mblen 2;
    seq rest length(mblen) {
        uint unit 1;
        uint fc 1;
        optional r_coils when fc == 1 {
            seq rc {
                uint rc_bc 1;
                seq rc_data length(rc_bc) { bytes rc_bytes end; }
            }
        }
        optional r_discrete when fc == 2 {
            seq rd {
                uint rd_bc 1;
                seq rd_data length(rd_bc) { bytes rd_bytes end; }
            }
        }
        optional r_holding when fc == 3 {
            seq rh {
                uint rh_bc 1;
                seq rh_data length(rh_bc) {
                    repeat rh_regs end { uint rh_reg 2; }
                }
            }
        }
        optional r_input when fc == 4 {
            seq ri {
                uint ri_bc 1;
                seq ri_data length(ri_bc) {
                    repeat ri_regs end { uint ri_reg 2; }
                }
            }
        }
        optional r_wcoil when fc == 5 {
            seq wc { uint wc_addr 2; uint wc_val 2; }
        }
        optional r_wreg when fc == 6 {
            seq wr { uint wr_addr 2; uint wr_val 2; }
        }
        optional r_wcoils when fc == 15 {
            seq wcs { uint wcs_addr 2; uint wcs_qty 2; }
        }
        optional r_wregs when fc == 16 {
            seq wrs { uint wrs_addr 2; uint wrs_qty 2; }
        }
        # Exception responses: function code with the high bit set,
        # followed by a one-byte exception code (Modbus spec §7).
        optional x_coils    when fc == 129 { seq x1  { uint x1_code 1; } }
        optional x_discrete when fc == 130 { seq x2  { uint x2_code 1; } }
        optional x_holding  when fc == 131 { seq x3  { uint x3_code 1; } }
        optional x_input    when fc == 132 { seq x4  { uint x4_code 1; } }
        optional x_wcoil    when fc == 133 { seq x5  { uint x5_code 1; } }
        optional x_wreg     when fc == 134 { seq x6  { uint x6_code 1; } }
        optional x_wcoils   when fc == 143 { seq x15 { uint x15_code 1; } }
        optional x_wregs    when fc == 144 { seq x16 { uint x16_code 1; } }
    }
}
`

// RequestGraph parses the request specification.
func RequestGraph() (*graph.Graph, error) { return spec.Parse(RequestSpec) }

// ResponseGraph parses the response specification.
func ResponseGraph() (*graph.Graph, error) { return spec.Parse(ResponseSpec) }

// Request describes the logical content of one Modbus request.
type Request struct {
	TxID uint16
	Unit uint8
	Fc   int
	Addr uint16
	// Qty is the coil/register quantity for read requests and multi-writes.
	Qty uint16
	// Val is the value for single-write requests (5, 6).
	Val uint16
	// Coils is the packed coil payload for function 15.
	Coils []byte
	// Regs are the register values for function 16.
	Regs []uint16
}

// BuildRequest constructs the message AST of req on graph g (plain or
// obfuscated: the accessors use original field names either way).
func BuildRequest(g *graph.Graph, r *rng.R, req Request) (*msgtree.Message, error) {
	m := msgtree.New(g, r)
	s := m.Scope()
	if err := firstErr(
		s.SetUint("txid", uint64(req.TxID)),
		s.SetUint("proto", 0),
		s.SetUint("unit", uint64(req.Unit)),
		s.SetUint("fc", uint64(req.Fc)),
	); err != nil {
		return nil, err
	}
	simple := func(opt, prefix string, a, b uint64) error {
		sc, err := s.Enable(opt)
		if err != nil {
			return err
		}
		return firstErr(
			sc.SetUint(prefix+"_addr", a),
			sc.SetUint(prefix+"_qty", b),
		)
	}
	switch req.Fc {
	case FcReadCoils:
		if err := simple("read_coils", "rc", uint64(req.Addr), uint64(req.Qty)); err != nil {
			return nil, err
		}
	case FcReadDiscrete:
		if err := simple("read_discrete", "rd", uint64(req.Addr), uint64(req.Qty)); err != nil {
			return nil, err
		}
	case FcReadHolding:
		if err := simple("read_holding", "rh", uint64(req.Addr), uint64(req.Qty)); err != nil {
			return nil, err
		}
	case FcReadInput:
		if err := simple("read_input", "ri", uint64(req.Addr), uint64(req.Qty)); err != nil {
			return nil, err
		}
	case FcWriteCoil:
		sc, err := s.Enable("write_coil")
		if err != nil {
			return nil, err
		}
		if err := firstErr(sc.SetUint("wc_addr", uint64(req.Addr)), sc.SetUint("wc_val", uint64(req.Val))); err != nil {
			return nil, err
		}
	case FcWriteReg:
		sc, err := s.Enable("write_reg")
		if err != nil {
			return nil, err
		}
		if err := firstErr(sc.SetUint("wr_addr", uint64(req.Addr)), sc.SetUint("wr_val", uint64(req.Val))); err != nil {
			return nil, err
		}
	case FcWriteCoils:
		sc, err := s.Enable("write_coils")
		if err != nil {
			return nil, err
		}
		if err := firstErr(
			sc.SetUint("wcs_addr", uint64(req.Addr)),
			sc.SetUint("wcs_qty", uint64(req.Qty)),
			sc.SetBytes("wcs_bytes", req.Coils),
		); err != nil {
			return nil, err
		}
	case FcWriteRegs:
		sc, err := s.Enable("write_regs")
		if err != nil {
			return nil, err
		}
		if err := firstErr(sc.SetUint("wrs_addr", uint64(req.Addr))); err != nil {
			return nil, err
		}
		for _, reg := range req.Regs {
			item, err := sc.Add("wrs_regs")
			if err != nil {
				return nil, err
			}
			if err := item.SetUint("wrs_reg", uint64(reg)); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("modbus: unsupported function code %d", req.Fc)
	}
	return m, nil
}

// Exception codes (Modbus application protocol §7).
const (
	ExIllegalFunction = 1
	ExIllegalAddress  = 2
	ExIllegalValue    = 3
)

// Response describes the logical content of one Modbus response.
type Response struct {
	TxID uint16
	Unit uint8
	// Fc is the function code; exception responses carry fc|0x80.
	Fc int
	// Bits is the packed coil/discrete payload (1, 2).
	Bits []byte
	// Regs are register values (3, 4).
	Regs []uint16
	// Addr/Qty/Val echo request fields (5, 6, 15, 16).
	Addr uint16
	Qty  uint16
	Val  uint16
	// ExCode is the exception code of an exception response (Fc >= 0x80).
	ExCode uint8
}

// IsException reports whether the response is an exception.
func (r Response) IsException() bool { return r.Fc >= 0x80 }

// exceptionBranch maps an exception function code to its optional branch
// and code-field names.
func exceptionBranch(fc int) (opt, field string, ok bool) {
	switch fc {
	case 0x81:
		return "x_coils", "x1_code", true
	case 0x82:
		return "x_discrete", "x2_code", true
	case 0x83:
		return "x_holding", "x3_code", true
	case 0x84:
		return "x_input", "x4_code", true
	case 0x85:
		return "x_wcoil", "x5_code", true
	case 0x86:
		return "x_wreg", "x6_code", true
	case 0x8F:
		return "x_wcoils", "x15_code", true
	case 0x90:
		return "x_wregs", "x16_code", true
	default:
		return "", "", false
	}
}

// BuildResponse constructs the message AST of resp on graph g.
func BuildResponse(g *graph.Graph, r *rng.R, resp Response) (*msgtree.Message, error) {
	m := msgtree.New(g, r)
	s := m.Scope()
	if err := firstErr(
		s.SetUint("txid", uint64(resp.TxID)),
		s.SetUint("proto", 0),
		s.SetUint("unit", uint64(resp.Unit)),
		s.SetUint("fc", uint64(resp.Fc)),
	); err != nil {
		return nil, err
	}
	bitsResp := func(opt, field string) error {
		sc, err := s.Enable(opt)
		if err != nil {
			return err
		}
		return sc.SetBytes(field, resp.Bits)
	}
	regsResp := func(opt, rep, field string) error {
		sc, err := s.Enable(opt)
		if err != nil {
			return err
		}
		for _, reg := range resp.Regs {
			item, err := sc.Add(rep)
			if err != nil {
				return err
			}
			if err := item.SetUint(field, uint64(reg)); err != nil {
				return err
			}
		}
		return nil
	}
	echo := func(opt, prefix string, a, b uint64) error {
		sc, err := s.Enable(opt)
		if err != nil {
			return err
		}
		return firstErr(sc.SetUint(prefix+"_addr", a), sc.SetUint(prefix+"_qty", b))
	}
	if resp.IsException() {
		opt, field, ok := exceptionBranch(resp.Fc)
		if !ok {
			return nil, fmt.Errorf("modbus: unsupported exception code %#x", resp.Fc)
		}
		sc, err := s.Enable(opt)
		if err != nil {
			return nil, err
		}
		if err := sc.SetUint(field, uint64(resp.ExCode)); err != nil {
			return nil, err
		}
		return m, nil
	}
	var err error
	switch resp.Fc {
	case FcReadCoils:
		err = bitsResp("r_coils", "rc_bytes")
	case FcReadDiscrete:
		err = bitsResp("r_discrete", "rd_bytes")
	case FcReadHolding:
		err = regsResp("r_holding", "rh_regs", "rh_reg")
	case FcReadInput:
		err = regsResp("r_input", "ri_regs", "ri_reg")
	case FcWriteCoil:
		sc, serr := s.Enable("r_wcoil")
		if serr != nil {
			return nil, serr
		}
		err = firstErr(sc.SetUint("wc_addr", uint64(resp.Addr)), sc.SetUint("wc_val", uint64(resp.Val)))
	case FcWriteReg:
		sc, serr := s.Enable("r_wreg")
		if serr != nil {
			return nil, serr
		}
		err = firstErr(sc.SetUint("wr_addr", uint64(resp.Addr)), sc.SetUint("wr_val", uint64(resp.Val)))
	case FcWriteCoils:
		err = echo("r_wcoils", "wcs", uint64(resp.Addr), uint64(resp.Qty))
	case FcWriteRegs:
		err = echo("r_wregs", "wrs", uint64(resp.Addr), uint64(resp.Qty))
	default:
		err = fmt.Errorf("modbus: unsupported function code %d", resp.Fc)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// RandomRequest draws a request with random but protocol-consistent
// field values, as the paper's core application does (§VII-A).
func RandomRequest(r *rng.R) Request {
	fc := FunctionCodes[r.Intn(len(FunctionCodes))]
	req := Request{
		TxID: uint16(r.Intn(1 << 16)),
		Unit: uint8(1 + r.Intn(16)),
		Fc:   fc,
		Addr: uint16(r.Intn(1 << 12)),
	}
	switch fc {
	case FcReadCoils, FcReadDiscrete, FcReadHolding, FcReadInput:
		req.Qty = uint16(1 + r.Intn(100))
	case FcWriteCoil:
		if r.Intn(2) == 0 {
			req.Val = 0xFF00
		}
	case FcWriteReg:
		req.Val = uint16(r.Intn(1 << 16))
	case FcWriteCoils:
		nbits := 1 + r.Intn(64)
		req.Qty = uint16(nbits)
		req.Coils = r.Bytes((nbits + 7) / 8)
	case FcWriteRegs:
		nregs := 1 + r.Intn(16)
		req.Regs = make([]uint16, nregs)
		for i := range req.Regs {
			req.Regs[i] = uint16(r.Intn(1 << 16))
		}
	}
	return req
}

// RespondTo computes the server's logical answer to req over a register
// bank, mimicking a real Modbus slave: invalid quantities yield
// exception responses (fc|0x80 with an exception code).
func RespondTo(req Request, bank *Bank) Response {
	resp := Response{TxID: req.TxID, Unit: req.Unit, Fc: req.Fc}
	if code := validateRequest(req); code != 0 {
		resp.Fc = req.Fc | 0x80
		resp.ExCode = code
		return resp
	}
	switch req.Fc {
	case FcReadCoils, FcReadDiscrete:
		resp.Bits = bank.ReadBits(int(req.Addr), int(req.Qty))
	case FcReadHolding, FcReadInput:
		resp.Regs = bank.ReadRegs(int(req.Addr), int(req.Qty))
	case FcWriteCoil:
		bank.WriteBit(int(req.Addr), req.Val == 0xFF00)
		resp.Addr, resp.Val = req.Addr, req.Val
	case FcWriteReg:
		bank.WriteReg(int(req.Addr), req.Val)
		resp.Addr, resp.Val = req.Addr, req.Val
	case FcWriteCoils:
		bank.WriteBits(int(req.Addr), int(req.Qty), req.Coils)
		resp.Addr, resp.Qty = req.Addr, req.Qty
	case FcWriteRegs:
		bank.WriteRegs(int(req.Addr), req.Regs)
		resp.Addr, resp.Qty = req.Addr, uint16(len(req.Regs))
	}
	return resp
}

// validateRequest returns a Modbus exception code for malformed
// requests, or 0 when the request is acceptable.
func validateRequest(req Request) uint8 {
	switch req.Fc {
	case FcReadCoils, FcReadDiscrete:
		if req.Qty == 0 || req.Qty > 2000 {
			return ExIllegalValue
		}
	case FcReadHolding, FcReadInput:
		if req.Qty == 0 || req.Qty > 125 {
			return ExIllegalValue
		}
	case FcWriteCoil:
		if req.Val != 0 && req.Val != 0xFF00 {
			return ExIllegalValue
		}
	case FcWriteCoils:
		if req.Qty == 0 || int(req.Qty+7)/8 != len(req.Coils) {
			return ExIllegalValue
		}
	case FcWriteRegs:
		if len(req.Regs) == 0 || len(req.Regs) > 123 {
			return ExIllegalValue
		}
	}
	return 0
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
