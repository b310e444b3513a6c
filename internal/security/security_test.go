package security

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// seal lays msg out behind l's headroom, with spare capacity for the
// suffix, and seals it in place — what the network manager does with
// its envelopes.
func seal(tb testing.TB, l Layer, msg []byte) []byte {
	tb.Helper()
	env := make([]byte, l.PrefixOverhead()+len(msg), l.PrefixOverhead()+len(msg)+l.SuffixOverhead())
	copy(env[l.PrefixOverhead():], msg)
	sealed, err := l.SealInPlace(env)
	if err != nil {
		tb.Fatal(err)
	}
	return sealed
}

func TestAESGCMRoundTrip(t *testing.T) {
	l, err := NewAESGCM("start-password")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("secret SDMessage bytes")
	sealed := seal(t, l, msg)
	if bytes.Contains(sealed, msg) {
		t.Error("ciphertext contains plaintext")
	}
	opened, err := l.OpenInPlace(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, msg) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestAESGCMRoundTripProperty(t *testing.T) {
	l, err := NewAESGCM("pw")
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sealed := seal(t, l, msg)
		if len(sealed) != l.PrefixOverhead()+len(msg)+l.SuffixOverhead() {
			return false
		}
		opened, err := l.OpenInPlace(sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(opened, msg) || (len(msg) == 0 && len(opened) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAESGCMTamperDetected(t *testing.T) {
	l, _ := NewAESGCM("pw")
	sealed := seal(t, l, []byte("authentic"))
	for i := 0; i < len(sealed); i += 5 {
		corrupt := append([]byte(nil), sealed...)
		corrupt[i] ^= 0x01
		if _, err := l.OpenInPlace(corrupt); err == nil {
			t.Fatalf("tampering at byte %d not detected", i)
		} else if !errors.Is(err, types.ErrCrypto) {
			t.Fatalf("tamper error %v does not wrap ErrCrypto", err)
		}
	}
}

func TestAESGCMWrongPasswordRejected(t *testing.T) {
	a, _ := NewAESGCM("alpha")
	b, _ := NewAESGCM("beta")
	sealed := seal(t, a, []byte("for alpha peers only"))
	if _, err := b.OpenInPlace(sealed); !errors.Is(err, types.ErrCrypto) {
		t.Fatalf("foreign cluster opened the message: %v", err)
	}
}

func TestAESGCMSamePasswordInterops(t *testing.T) {
	// Two sites of the same cluster (same start secret, different layer
	// instances) must understand each other.
	a, _ := NewAESGCM("shared")
	b, _ := NewAESGCM("shared")
	sealed := seal(t, a, []byte("site-to-site"))
	opened, err := b.OpenInPlace(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(opened) != "site-to-site" {
		t.Fatal("interop roundtrip mismatch")
	}
}

func TestAESGCMNoncesUnique(t *testing.T) {
	l, _ := NewAESGCM("pw")
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		sealed := seal(t, l, []byte("x"))
		n := string(sealed[:12])
		if seen[n] {
			t.Fatal("nonce reuse detected")
		}
		seen[n] = true
	}
}

func TestAESGCMShortDatagram(t *testing.T) {
	l, _ := NewAESGCM("pw")
	if _, err := l.OpenInPlace([]byte("short")); !errors.Is(err, types.ErrCrypto) {
		t.Fatalf("short datagram: %v", err)
	}
}

// TestInPlaceStaysInBuffer pins the zero-copy property: with the
// reserved capacity the seal does not move the envelope, and the open
// decrypts into the sealed datagram's own storage.
func TestInPlaceStaysInBuffer(t *testing.T) {
	l, err := NewAESGCM("inplace-pw")
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("help request payload")
	env := make([]byte, l.PrefixOverhead()+len(pt), l.PrefixOverhead()+len(pt)+l.SuffixOverhead())
	copy(env[l.PrefixOverhead():], pt)
	sealed, err := l.SealInPlace(env)
	if err != nil {
		t.Fatal(err)
	}
	if &sealed[0] != &env[0] {
		t.Fatal("SealInPlace moved the buffer despite reserved capacity")
	}
	got, err := l.OpenInPlace(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("OpenInPlace(SealInPlace(...)) = %q", got)
	}
	if &got[0] != &sealed[l.PrefixOverhead()] {
		t.Fatal("OpenInPlace did not decrypt into the input buffer")
	}
}

func TestInPlaceTamperRejected(t *testing.T) {
	l, _ := NewAESGCM("pw")
	env := make([]byte, l.PrefixOverhead()+8, l.PrefixOverhead()+8+l.SuffixOverhead())
	sealed, err := l.SealInPlace(env)
	if err != nil {
		t.Fatal(err)
	}
	sealed[len(sealed)-1] ^= 1
	if _, err := l.OpenInPlace(sealed); !errors.Is(err, types.ErrCrypto) {
		t.Fatalf("tampered OpenInPlace error = %v, want ErrCrypto", err)
	}
	if _, err := l.SealInPlace(make([]byte, 4)); err == nil {
		t.Fatal("SealInPlace accepted an envelope shorter than its prefix")
	}
}

// TestPlaintextInPlace pins the no-op layer: zero overhead, identity
// transform, same backing array.
func TestPlaintextInPlace(t *testing.T) {
	var l Layer = Plaintext{}
	if l.PrefixOverhead() != 0 || l.SuffixOverhead() != 0 {
		t.Fatal("Plaintext reports nonzero overhead")
	}
	buf := []byte("as-is")
	sealed, err := l.SealInPlace(buf)
	if err != nil || &sealed[0] != &buf[0] || len(sealed) != len(buf) {
		t.Fatalf("SealInPlace = %q, %v", sealed, err)
	}
	opened, err := l.OpenInPlace(buf)
	if err != nil || &opened[0] != &buf[0] {
		t.Fatalf("OpenInPlace = %q, %v", opened, err)
	}
}

// BenchmarkSealInPlace1K tracks that the in-place seal itself is
// allocation-free once the envelope exists.
func BenchmarkSealInPlace1K(b *testing.B) {
	l, _ := NewAESGCM("pw")
	env := make([]byte, 12+1024, 12+1024+l.SuffixOverhead())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := l.SealInPlace(env[:12+1024])
		if err != nil {
			b.Fatal(err)
		}
		env = sealed[:12+1024]
	}
}
