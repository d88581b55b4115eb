package modbus

import (
	"fmt"

	"protoobf/internal/msgtree"
)

// ExtractRequest recovers the logical request from a (possibly
// obfuscated) parsed message using the original-name accessors.
func ExtractRequest(m *msgtree.Message) (Request, error) {
	s := m.Scope()
	var req Request
	txid, err := s.GetUint("txid")
	if err != nil {
		return req, err
	}
	unit, err := s.GetUint("unit")
	if err != nil {
		return req, err
	}
	fc, err := s.GetUint("fc")
	if err != nil {
		return req, err
	}
	req.TxID, req.Unit, req.Fc = uint16(txid), uint8(unit), int(fc)

	getU16 := func(sc *msgtree.Scope, name string) (uint16, error) {
		v, err := sc.GetUint(name)
		return uint16(v), err
	}
	simple := func(opt, prefix string) error {
		sc, err := enabled(s, opt)
		if err != nil {
			return err
		}
		if req.Addr, err = getU16(sc, prefix+"_addr"); err != nil {
			return err
		}
		req.Qty, err = getU16(sc, prefix+"_qty")
		return err
	}
	switch req.Fc {
	case FcReadCoils:
		return req, simple("read_coils", "rc")
	case FcReadDiscrete:
		return req, simple("read_discrete", "rd")
	case FcReadHolding:
		return req, simple("read_holding", "rh")
	case FcReadInput:
		return req, simple("read_input", "ri")
	case FcWriteCoil:
		sc, err := enabled(s, "write_coil")
		if err != nil {
			return req, err
		}
		if req.Addr, err = getU16(sc, "wc_addr"); err != nil {
			return req, err
		}
		req.Val, err = getU16(sc, "wc_val")
		return req, err
	case FcWriteReg:
		sc, err := enabled(s, "write_reg")
		if err != nil {
			return req, err
		}
		if req.Addr, err = getU16(sc, "wr_addr"); err != nil {
			return req, err
		}
		req.Val, err = getU16(sc, "wr_val")
		return req, err
	case FcWriteCoils:
		sc, err := enabled(s, "write_coils")
		if err != nil {
			return req, err
		}
		if req.Addr, err = getU16(sc, "wcs_addr"); err != nil {
			return req, err
		}
		if req.Qty, err = getU16(sc, "wcs_qty"); err != nil {
			return req, err
		}
		req.Coils, err = sc.GetBytes("wcs_bytes")
		return req, err
	case FcWriteRegs:
		sc, err := enabled(s, "write_regs")
		if err != nil {
			return req, err
		}
		if req.Addr, err = getU16(sc, "wrs_addr"); err != nil {
			return req, err
		}
		items, err := sc.Items("wrs_regs")
		if err != nil {
			return req, err
		}
		for _, item := range items {
			v, err := item.GetUint("wrs_reg")
			if err != nil {
				return req, err
			}
			req.Regs = append(req.Regs, uint16(v))
		}
		return req, nil
	default:
		return req, fmt.Errorf("modbus: unsupported function code %d", req.Fc)
	}
}

// ExtractResponse recovers the logical response from a parsed message.
func ExtractResponse(m *msgtree.Message) (Response, error) {
	s := m.Scope()
	var resp Response
	txid, err := s.GetUint("txid")
	if err != nil {
		return resp, err
	}
	unit, err := s.GetUint("unit")
	if err != nil {
		return resp, err
	}
	fc, err := s.GetUint("fc")
	if err != nil {
		return resp, err
	}
	resp.TxID, resp.Unit, resp.Fc = uint16(txid), uint8(unit), int(fc)

	regs := func(opt, rep, field string) error {
		sc, err := enabled(s, opt)
		if err != nil {
			return err
		}
		items, err := sc.Items(rep)
		if err != nil {
			return err
		}
		for _, item := range items {
			v, err := item.GetUint(field)
			if err != nil {
				return err
			}
			resp.Regs = append(resp.Regs, uint16(v))
		}
		return nil
	}
	echo := func(opt, prefix string) error {
		sc, err := enabled(s, opt)
		if err != nil {
			return err
		}
		a, err := sc.GetUint(prefix + "_addr")
		if err != nil {
			return err
		}
		q, err := sc.GetUint(prefix + "_qty")
		if err != nil {
			return err
		}
		resp.Addr, resp.Qty = uint16(a), uint16(q)
		return nil
	}
	if resp.IsException() {
		opt, field, ok := exceptionBranch(resp.Fc)
		if !ok {
			return resp, fmt.Errorf("modbus: unsupported exception code %#x", resp.Fc)
		}
		sc, err := enabled(s, opt)
		if err != nil {
			return resp, err
		}
		code, err := sc.GetUint(field)
		if err != nil {
			return resp, err
		}
		resp.ExCode = uint8(code)
		return resp, nil
	}
	switch resp.Fc {
	case FcReadCoils:
		sc, err := enabled(s, "r_coils")
		if err != nil {
			return resp, err
		}
		resp.Bits, err = sc.GetBytes("rc_bytes")
		return resp, err
	case FcReadDiscrete:
		sc, err := enabled(s, "r_discrete")
		if err != nil {
			return resp, err
		}
		resp.Bits, err = sc.GetBytes("rd_bytes")
		return resp, err
	case FcReadHolding:
		return resp, regs("r_holding", "rh_regs", "rh_reg")
	case FcReadInput:
		return resp, regs("r_input", "ri_regs", "ri_reg")
	case FcWriteCoil:
		sc, err := enabled(s, "r_wcoil")
		if err != nil {
			return resp, err
		}
		a, err := sc.GetUint("wc_addr")
		if err != nil {
			return resp, err
		}
		v, err := sc.GetUint("wc_val")
		if err != nil {
			return resp, err
		}
		resp.Addr, resp.Val = uint16(a), uint16(v)
		return resp, nil
	case FcWriteReg:
		sc, err := enabled(s, "r_wreg")
		if err != nil {
			return resp, err
		}
		a, err := sc.GetUint("wr_addr")
		if err != nil {
			return resp, err
		}
		v, err := sc.GetUint("wr_val")
		if err != nil {
			return resp, err
		}
		resp.Addr, resp.Val = uint16(a), uint16(v)
		return resp, nil
	case FcWriteCoils:
		return resp, echo("r_wcoils", "wcs")
	case FcWriteRegs:
		return resp, echo("r_wregs", "wrs")
	default:
		return resp, fmt.Errorf("modbus: unsupported function code %d", resp.Fc)
	}
}

func enabled(s *msgtree.Scope, opt string) (*msgtree.Scope, error) {
	ok, err := s.Present(opt)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("modbus: optional %q absent for its function code", opt)
	}
	return s.Enable(opt)
}
