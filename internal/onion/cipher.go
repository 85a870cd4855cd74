// Package onion implements the cryptographic substrate of onion-based
// anonymous routing (Sec. II-A/II-B): layered encryption in which each
// layer can be peeled only with the corresponding key, plus the group
// key model of ARDEN-style onion groups, where every member of group
// R_k shares the key for layer k.
//
// The paper's source protocols establish group keys with attribute-
// based or identity-based encryption; this package substitutes
// group-shared AES-256-GCM keys (same access structure: any group
// member can peel its layer, nobody else can) and also offers a hybrid
// RSA-OAEP mode mirroring classic public-key onion routing (Fig. 1).
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// KeySize is the symmetric key size in bytes (AES-256).
const KeySize = 32

const (
	gcmNonceSize = 12
	gcmTagSize   = 16
)

// Cipher seals and opens one onion layer. Implementations must be
// authenticated: Open fails on any tampering.
type Cipher interface {
	// Seal encrypts plaintext and returns a self-contained ciphertext.
	Seal(plaintext []byte) ([]byte, error)
	// Open decrypts a ciphertext produced by Seal.
	Open(ciphertext []byte) ([]byte, error)
	// Overhead returns the ciphertext expansion in bytes:
	// len(Seal(p)) == len(p) + Overhead() for every p.
	Overhead() int
}

// SymmetricCipher is an AES-256-GCM layer cipher keyed by a shared
// group key. The AES key schedule and GCM tables are built on the first
// Seal or Open: a network provisions a key for every node and group up
// front, and only pays for the schedule of a key once it is used.
type SymmetricCipher struct {
	key  [KeySize]byte
	rand io.Reader
	once sync.Once
	gcm  cipher.AEAD
}

var _ Cipher = (*SymmetricCipher)(nil)

// NewSymmetricCipher builds a layer cipher from a KeySize-byte key.
func NewSymmetricCipher(key []byte) (*SymmetricCipher, error) {
	return newSymmetricCipher(key, rand.Reader)
}

func newSymmetricCipher(key []byte, rnd io.Reader) (*SymmetricCipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("onion: key must be %d bytes, got %d", KeySize, len(key))
	}
	c := &SymmetricCipher{rand: rnd}
	copy(c.key[:], key)
	return c, nil
}

// aead returns the cipher's GCM instance, building it on first use.
// The key length was checked at construction, and AES-GCM accepts any
// AES block, so neither constructor can fail here.
func (c *SymmetricCipher) aead() cipher.AEAD {
	c.once.Do(func() {
		block, err := aes.NewCipher(c.key[:])
		if err != nil {
			panic(fmt.Sprintf("onion: new cipher: %v", err))
		}
		if c.gcm, err = cipher.NewGCM(block); err != nil {
			panic(fmt.Sprintf("onion: new GCM: %v", err))
		}
	})
	return c.gcm
}

// Seal implements Cipher.
func (c *SymmetricCipher) Seal(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, gcmNonceSize, gcmNonceSize+len(plaintext)+gcmTagSize)
	if _, err := io.ReadFull(c.rand, nonce); err != nil {
		return nil, fmt.Errorf("onion: nonce: %w", err)
	}
	return c.aead().Seal(nonce, nonce, plaintext, nil), nil
}

// Open implements Cipher.
func (c *SymmetricCipher) Open(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < gcmNonceSize+gcmTagSize {
		return nil, errors.New("onion: ciphertext too short")
	}
	nonce, sealed := ciphertext[:gcmNonceSize], ciphertext[gcmNonceSize:]
	pt, err := c.aead().Open(nil, nonce, sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("onion: open layer: %w", err)
	}
	return pt, nil
}

// Overhead implements Cipher.
func (c *SymmetricCipher) Overhead() int { return gcmNonceSize + gcmTagSize }

// GenerateKey returns a fresh random group key.
func GenerateKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("onion: generate key: %w", err)
	}
	return key, nil
}

// HybridCipher is a public-key layer cipher: an ephemeral AES-256-GCM
// key encrypts the payload and is wrapped with RSA-OAEP, the classic
// onion-routing construction of Fig. 1 (E_PK_r(...)).
type HybridCipher struct {
	pub  *rsa.PublicKey
	priv *rsa.PrivateKey // nil for a seal-only cipher
	rand io.Reader
}

var _ Cipher = (*HybridCipher)(nil)

// NewHybridSealer returns a cipher that can only Seal (as a source node
// holding a router's public key would).
func NewHybridSealer(pub *rsa.PublicKey) (*HybridCipher, error) {
	if pub == nil {
		return nil, errors.New("onion: nil public key")
	}
	return &HybridCipher{pub: pub, rand: rand.Reader}, nil
}

// NewHybridCipher returns a cipher that can Seal and Open (as the
// onion router holding the private key would).
func NewHybridCipher(priv *rsa.PrivateKey) (*HybridCipher, error) {
	if priv == nil {
		return nil, errors.New("onion: nil private key")
	}
	return &HybridCipher{pub: &priv.PublicKey, priv: priv, rand: rand.Reader}, nil
}

// Seal implements Cipher.
func (c *HybridCipher) Seal(plaintext []byte) ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(c.rand, key); err != nil {
		return nil, fmt.Errorf("onion: ephemeral key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), c.rand, c.pub, key, nil)
	if err != nil {
		return nil, fmt.Errorf("onion: wrap key: %w", err)
	}
	sym, err := newSymmetricCipher(key, c.rand)
	if err != nil {
		return nil, err
	}
	body, err := sym.Seal(plaintext)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(wrapped)+len(body))
	out = append(out, wrapped...)
	return append(out, body...), nil
}

// Open implements Cipher.
func (c *HybridCipher) Open(ciphertext []byte) ([]byte, error) {
	if c.priv == nil {
		return nil, errors.New("onion: cipher is seal-only (no private key)")
	}
	wrapLen := c.priv.PublicKey.Size()
	if len(ciphertext) < wrapLen {
		return nil, errors.New("onion: ciphertext shorter than wrapped key")
	}
	key, err := rsa.DecryptOAEP(sha256.New(), nil, c.priv, ciphertext[:wrapLen], nil)
	if err != nil {
		return nil, fmt.Errorf("onion: unwrap key: %w", err)
	}
	sym, err := newSymmetricCipher(key, c.rand)
	if err != nil {
		return nil, err
	}
	return sym.Open(ciphertext[wrapLen:])
}

// Overhead implements Cipher.
func (c *HybridCipher) Overhead() int {
	return c.pub.Size() + gcmNonceSize + 16 // RSA block + nonce + GCM tag
}

// NullCipher passes data through unchanged. It exists so that
// large-scale simulations can skip cryptographic work while exercising
// the exact same onion construction and routing code paths; it must
// never be used outside simulation.
type NullCipher struct{}

var _ Cipher = NullCipher{}

// Seal implements Cipher (identity).
func (NullCipher) Seal(plaintext []byte) ([]byte, error) {
	return append([]byte(nil), plaintext...), nil
}

// Open implements Cipher (identity).
func (NullCipher) Open(ciphertext []byte) ([]byte, error) {
	return append([]byte(nil), ciphertext...), nil
}

// Overhead implements Cipher.
func (NullCipher) Overhead() int { return 0 }
