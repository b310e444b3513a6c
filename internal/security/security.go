// Package security implements the SDVM's security manager (paper §4).
//
// The security manager "is placed between the message manager and the
// network manager": every outgoing serialized SDMessage passes through
// SealInPlace before the network manager transmits it, and every
// incoming datagram passes through OpenInPlace before the message
// manager parses it. The paper's design — a key table of known communication partners, a first
// contact secured by a hand-supplied start password, and the option to
// disable encryption entirely inside trusted clusters "in favor of a
// performance gain" — maps here onto AES-GCM with per-cluster keys
// derived from a start secret, and a plaintext mode.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/types"
)

// Layer seals and opens datagrams inside a caller-owned buffer, so the
// send and receive paths never allocate for cryptography. The caller
// lays the envelope out as
//
//	[ PrefixOverhead() bytes of headroom | plaintext ]
//
// with at least SuffixOverhead() bytes of spare capacity, and the layer
// transforms it in place. Implementations must be safe for concurrent
// use — the network manager sends from many goroutines.
type Layer interface {
	// PrefixOverhead is the number of bytes the layer writes before the
	// ciphertext (the AES-GCM nonce; zero for plaintext).
	PrefixOverhead() int
	// SuffixOverhead is the number of bytes the layer appends after the
	// ciphertext (the AES-GCM tag; zero for plaintext).
	SuffixOverhead() int
	// SealInPlace seals env[PrefixOverhead():] in place. cap(env) must
	// be at least len(env)+SuffixOverhead(). The result aliases env's
	// backing array.
	SealInPlace(env []byte) ([]byte, error)
	// OpenInPlace verifies and decrypts sealed destructively: the
	// returned plaintext is a subslice of sealed's backing array and
	// sealed's contents are consumed. Only the exclusive owner of
	// sealed (the receive loop owns its buffer) may use this.
	OpenInPlace(sealed []byte) ([]byte, error)
}

// Plaintext is the disabled security manager: datagrams pass through
// untouched. For insular clusters the paper recommends exactly this.
type Plaintext struct{}

// PrefixOverhead returns 0.
func (Plaintext) PrefixOverhead() int { return 0 }

// SuffixOverhead returns 0.
func (Plaintext) SuffixOverhead() int { return 0 }

// SealInPlace returns the envelope unchanged.
func (Plaintext) SealInPlace(env []byte) ([]byte, error) { return env, nil }

// OpenInPlace returns the datagram unchanged.
func (Plaintext) OpenInPlace(sealed []byte) ([]byte, error) { return sealed, nil }

// AESGCM encrypts every datagram with AES-256-GCM under a key derived
// from the cluster's start secret. GCM gives confidentiality and
// integrity in one pass: a tampered or foreign datagram fails OpenInPlace with
// types.ErrCrypto, which is how "protection against spying and
// corruption" (goal 12) is realized.
type AESGCM struct {
	aead cipher.AEAD

	mu      sync.Mutex
	counter uint64
	prefix  [4]byte // random per-instance nonce prefix
}

// NewAESGCM derives a key from the start secret and returns the layer.
// Every site of a cluster must be started with the same secret — the
// paper's "supplying a start password by hand".
func NewAESGCM(startSecret string) (*AESGCM, error) {
	key := sha256.Sum256([]byte("sdvm-cluster-key/" + startSecret))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	l := &AESGCM{aead: aead}
	if _, err := rand.Read(l.prefix[:]); err != nil {
		return nil, fmt.Errorf("security: nonce prefix: %w", err)
	}
	return l, nil
}

// nonceInto writes a fresh unique nonce into n (len 12): 4 random
// prefix bytes (distinct per site with overwhelming probability) plus a
// 64-bit counter. Allocation-free so the in-place seal path stays so.
func (l *AESGCM) nonceInto(n []byte) {
	l.mu.Lock()
	l.counter++
	c := l.counter
	l.mu.Unlock()

	copy(n, l.prefix[:])
	for i := 0; i < 8; i++ {
		n[4+i] = byte(c >> (8 * i))
	}
}

// SealInPlace seals env[12:] in place: the nonce lands in the 12-byte
// headroom and the ciphertext overwrites the plaintext exactly (GCM
// supports perfectly overlapping dst and plaintext), with the tag in
// env's spare capacity — cap(env) must be at least len(env)+16.
func (l *AESGCM) SealInPlace(env []byte) ([]byte, error) {
	if len(env) < 12 {
		return nil, fmt.Errorf("%w: envelope shorter than nonce headroom", types.ErrCrypto)
	}
	nonce := env[:12]
	l.nonceInto(nonce)
	return l.aead.Seal(nonce, nonce, env[12:], nil), nil
}

// OpenInPlace decrypts sealed destructively: the plaintext overwrites
// the ciphertext in sealed's backing array (verification happens before
// any byte is released, so a tampered datagram never yields partial
// plaintext).
func (l *AESGCM) OpenInPlace(sealed []byte) ([]byte, error) {
	if len(sealed) < 12 {
		return nil, fmt.Errorf("%w: datagram shorter than nonce", types.ErrCrypto)
	}
	n, ct := sealed[:12], sealed[12:]
	pt, err := l.aead.Open(ct[:0], n, ct, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", types.ErrCrypto, err)
	}
	return pt, nil
}

// PrefixOverhead returns the nonce size.
func (l *AESGCM) PrefixOverhead() int { return 12 }

// SuffixOverhead returns the GCM tag size.
func (l *AESGCM) SuffixOverhead() int { return l.aead.Overhead() }

// Compile-time interface checks.
var (
	_ Layer = Plaintext{}
	_ Layer = (*AESGCM)(nil)
)
