package frame

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// writeFrame appends one epoch frame to buf.
func writeFrame(buf *bytes.Buffer, kind byte, epoch uint64, payload []byte) error {
	var hdr [EpochHeaderLen]byte
	if err := EncodeHeader(hdr[:], kind, epoch, len(payload)); err != nil {
		return err
	}
	buf.Write(hdr[:])
	buf.Write(payload)
	return nil
}

// readFrame reads one epoch frame from r.
func readFrame(r io.Reader) (byte, uint64, []byte, error) {
	var hdr [EpochHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	kind, n, epoch, err := DecodeHeader(hdr[:])
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err := ReadBody(r, nil, n)
	return kind, epoch, payload, err
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		buf.Reset()
		if err := writeFrame(&buf, KindData, 9, payload); err != nil {
			t.Fatalf("write(%d bytes): %v", len(payload), err)
		}
		kind, epoch, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if kind != KindData || epoch != 9 || !bytes.Equal(got, payload) {
			t.Errorf("round trip mismatch for %d bytes: kind %#02x epoch %d", len(payload), kind, epoch)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kind byte, epoch uint64, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, epoch, payload); err != nil {
			return false
		}
		k, e, got, err := readFrame(&buf)
		return err == nil && k == kind && e == epoch && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOversized(t *testing.T) {
	var hdr [EpochHeaderLen]byte
	if err := EncodeHeader(hdr[:], KindData, 0, MaxFrame+1); err == nil {
		t.Error("oversized header encoded")
	}
	// A forged oversized header is rejected before allocation.
	forged := bytes.NewReader([]byte{0, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, _, _, err := readFrame(forged); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized header: %v", err)
	}
}

func TestTruncated(t *testing.T) {
	// Header cut short.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("short header accepted")
	}
	// Payload cut short.
	var buf bytes.Buffer
	if err := writeFrame(&buf, KindData, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, _, err := readFrame(bytes.NewReader(short)); err != io.ErrUnexpectedEOF {
		t.Errorf("short payload: %v", err)
	}
}

func TestKindHeaderRoundTrip(t *testing.T) {
	var hdr [EpochHeaderLen]byte
	for _, kind := range []byte{KindData, KindRekeyPropose, KindRekeyAck, 0x7F} {
		for _, epoch := range []uint64{0, 1, 1 << 40} {
			if err := EncodeHeader(hdr[:], kind, epoch, 17); err != nil {
				t.Fatal(err)
			}
			k, n, e, err := DecodeHeader(hdr[:])
			if err != nil {
				t.Fatal(err)
			}
			if k != kind || n != 17 || e != epoch {
				t.Errorf("round trip (kind=%#02x epoch=%d) = (%#02x, %d, %d)", kind, epoch, k, n, e)
			}
		}
	}
}

func TestDataFrameWireUnchangedByKindByte(t *testing.T) {
	// A data frame must stay byte-identical to the pre-kind format: the
	// kind byte reuses the always-zero top byte of the length word.
	var hdr [EpochHeaderLen]byte
	if err := EncodeHeader(hdr[:], KindData, 7, 300); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0x01, 0x2C, 0, 0, 0, 0, 0, 0, 0, 7}
	if !bytes.Equal(hdr[:], want) {
		t.Errorf("data header = % x, want % x", hdr[:], want)
	}
}

func TestDecodeHeaderOversized(t *testing.T) {
	// The length bound applies to the low 24 bits regardless of kind.
	hdr := []byte{KindRekeyAck, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, _, err := DecodeHeader(hdr); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized control frame: %v", err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&buf, KindData, uint64(i), []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		_, epoch, got, err := readFrame(&buf)
		if err != nil || epoch != uint64(i) || got[0] != byte(i) {
			t.Fatalf("frame %d: %x at epoch %d, %v", i, got, epoch, err)
		}
	}
}
