package onion

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"sync"
	"testing"
	"testing/quick"
)

func mustKey(t testing.TB) []byte {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func mustSym(t testing.TB) *SymmetricCipher {
	t.Helper()
	c, err := NewSymmetricCipher(mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSymmetricRoundTrip(t *testing.T) {
	c := mustSym(t)
	for _, msg := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		ct, err := c.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != len(msg)+c.Overhead() {
			t.Fatalf("overhead mismatch: %d != %d + %d", len(ct), len(msg), c.Overhead())
		}
		pt, err := c.Open(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestSymmetricTamperDetected(t *testing.T) {
	c := mustSym(t)
	ct, err := c.Seal([]byte("secret payload"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i += 7 {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x01
		if _, err := c.Open(bad); err == nil {
			t.Fatalf("tampering at byte %d not detected", i)
		}
	}
}

func TestSymmetricWrongKeyFails(t *testing.T) {
	a, b := mustSym(t), mustSym(t)
	ct, err := a.Seal([]byte("for a only"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(ct); err == nil {
		t.Fatal("opened with wrong key")
	}
}

func TestSymmetricNondeterministicCiphertext(t *testing.T) {
	c := mustSym(t)
	a, _ := c.Seal([]byte("same"))
	b, _ := c.Seal([]byte("same"))
	if bytes.Equal(a, b) {
		t.Fatal("ciphertexts repeat; nonce reuse?")
	}
}

func TestNewSymmetricCipherBadKey(t *testing.T) {
	if _, err := NewSymmetricCipher([]byte("short")); err == nil {
		t.Fatal("accepted short key")
	}
}

// TestSymmetricKeyCopiedAtConstruction: the key schedule is built on
// first use, so the cipher must keep its own copy of the key.
func TestSymmetricKeyCopiedAtConstruction(t *testing.T) {
	key := mustKey(t)
	ref, err := NewSymmetricCipher(append([]byte(nil), key...))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSymmetricCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range key {
		key[i] ^= 0xff
	}
	ct, err := c.Seal([]byte("keyed before the edit"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Open(ct); err != nil {
		t.Fatalf("cipher sealed with the caller's edited key: %v", err)
	}
}

// TestSymmetricConcurrentFirstUse: goroutines racing to the first Seal
// and Open of a fresh cipher all succeed.
func TestSymmetricConcurrentFirstUse(t *testing.T) {
	c := mustSym(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, err := c.Seal([]byte("first use"))
			if err != nil {
				t.Error(err)
				return
			}
			if pt, err := c.Open(ct); err != nil || string(pt) != "first use" {
				t.Errorf("open: %q, %v", pt, err)
			}
		}()
	}
	wg.Wait()
}

func TestOpenTooShort(t *testing.T) {
	c := mustSym(t)
	if _, err := c.Open([]byte{1, 2, 3}); err == nil {
		t.Fatal("opened garbage")
	}
}

func TestHybridRoundTrip(t *testing.T) {
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewHybridCipher(priv)
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewHybridSealer(&priv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("onion routed via public keys")
	ct, err := source.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+source.Overhead() {
		t.Fatalf("overhead mismatch: %d vs %d", len(ct)-len(msg), source.Overhead())
	}
	pt, err := router.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestHybridSealerCannotOpen(t *testing.T) {
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewHybridSealer(&priv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := source.Seal([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.Open(ct); err == nil {
		t.Fatal("seal-only cipher opened a ciphertext")
	}
}

func TestNullCipher(t *testing.T) {
	c := NullCipher{}
	msg := []byte("clear")
	ct, err := c.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct, msg) || c.Overhead() != 0 {
		t.Fatal("null cipher is not identity")
	}
	ct[0] = 'X' // must not alias the input
	if msg[0] != 'c' {
		t.Fatal("Seal aliased input")
	}
}

func buildTestHops(t testing.TB, k int) ([]Hop, []*SymmetricCipher) {
	t.Helper()
	hops := make([]Hop, k)
	ciphers := make([]*SymmetricCipher, k)
	for i := range hops {
		c := mustSym(t)
		hops[i] = Hop{Group: GroupID(i + 10), Cipher: c}
		ciphers[i] = c
	}
	return hops, ciphers
}

func TestOnionFullTraversal(t *testing.T) {
	const K = 3
	hops, ciphers := buildTestHops(t, K)
	destCipher := mustSym(t)
	payload := []byte("meet at the bridge at dawn")

	data, err := Build(42, payload, hops, destCipher, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the onion as the routers would.
	cur := data
	for k := 0; k < K; k++ {
		p, err := Peel(cur, ciphers[k])
		if err != nil {
			t.Fatalf("peel layer %d: %v", k, err)
		}
		if k < K-1 {
			if p.Deliver {
				t.Fatalf("layer %d unexpectedly final", k)
			}
			if p.NextGroup != hops[k+1].Group {
				t.Fatalf("layer %d points to group %d, want %d", k, p.NextGroup, hops[k+1].Group)
			}
		} else {
			if !p.Deliver {
				t.Fatal("last layer not marked deliver")
			}
			if p.Dest != 42 {
				t.Fatalf("dest = %d, want 42", p.Dest)
			}
		}
		cur = p.Inner
	}
	got, err := Unwrap(cur, destCipher)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

func TestOnionSingleHop(t *testing.T) {
	hops, ciphers := buildTestHops(t, 1)
	destCipher := mustSym(t)
	data, err := Build(7, []byte("hi"), hops, destCipher, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Peel(data, ciphers[0])
	if err != nil {
		t.Fatal(err)
	}
	if !p.Deliver || p.Dest != 7 {
		t.Fatalf("single-hop peel: %+v", p)
	}
	got, err := Unwrap(p.Inner, destCipher)
	if err != nil || !bytes.Equal(got, []byte("hi")) {
		t.Fatalf("unwrap: %q, %v", got, err)
	}
}

func TestOnionWrongLayerKeyFails(t *testing.T) {
	hops, ciphers := buildTestHops(t, 3)
	destCipher := mustSym(t)
	data, err := Build(1, []byte("m"), hops, destCipher, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Peeling the outer layer with layer 2's key must fail: only R_1
	// members can peel.
	if _, err := Peel(data, ciphers[1]); err == nil {
		t.Fatal("peeled with wrong group key")
	}
}

func TestOnionPayloadHiddenFromRelays(t *testing.T) {
	hops, _ := buildTestHops(t, 2)
	destCipher := mustSym(t)
	payload := []byte("attack at dawn --- unmistakable marker 0xDEADBEEF")
	data, err := Build(1, payload, hops, destCipher, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, payload[5:20]) {
		t.Fatal("payload fragment visible in onion ciphertext")
	}
}

func TestOnionPadding(t *testing.T) {
	hops, ciphers := buildTestHops(t, 2)
	destCipher := mustSym(t)
	const padTo = 1024
	short, err := Build(3, []byte("a"), hops, destCipher, padTo)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Build(3, bytes.Repeat([]byte("b"), 500), hops, destCipher, padTo)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != padTo || len(long) != padTo {
		t.Fatalf("padded sizes %d, %d; want %d", len(short), len(long), padTo)
	}
	// Padded onion still decodes to the original payload.
	p1, err := Peel(short, ciphers[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Peel(p1.Inner, ciphers[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unwrap(p2.Inner, destCipher)
	if err != nil || !bytes.Equal(got, []byte("a")) {
		t.Fatalf("padded unwrap: %q, %v", got, err)
	}
}

func TestOnionPadTooSmall(t *testing.T) {
	hops, _ := buildTestHops(t, 2)
	destCipher := mustSym(t)
	if _, err := Build(3, bytes.Repeat([]byte("x"), 100), hops, destCipher, 16); err == nil {
		t.Fatal("accepted padTo below minimum")
	}
}

func TestMinSizeMatchesBuild(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		hops, _ := buildTestHops(t, k)
		destCipher := mustSym(t)
		payload := bytes.Repeat([]byte("p"), 37)
		data, err := Build(1, payload, hops, destCipher, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := MinSize(len(payload), hops, destCipher); len(data) != want {
			t.Fatalf("K=%d: built %d bytes, MinSize says %d", k, len(data), want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	hops, _ := buildTestHops(t, 1)
	destCipher := mustSym(t)
	if _, err := Build(1, nil, nil, destCipher, 0); err == nil {
		t.Fatal("accepted zero hops")
	}
	if _, err := Build(-1, nil, hops, destCipher, 0); err == nil {
		t.Fatal("accepted negative destination")
	}
	if _, err := Build(1, nil, []Hop{{Group: -1, Cipher: destCipher}}, destCipher, 0); err == nil {
		t.Fatal("accepted negative group")
	}
	if _, err := Build(1, nil, []Hop{{Group: 1, Cipher: nil}}, destCipher, 0); err == nil {
		t.Fatal("accepted nil hop cipher")
	}
	if _, err := Build(1, nil, hops, nil, 0); err == nil {
		t.Fatal("accepted nil destination cipher")
	}
}

func TestPeelGarbage(t *testing.T) {
	c := mustSym(t)
	if _, err := Peel([]byte("not an onion at all"), c); err == nil {
		t.Fatal("peeled garbage")
	}
	if _, err := Peel(nil, nil); err == nil {
		t.Fatal("peeled with nil cipher")
	}
}

func TestUnwrapGarbage(t *testing.T) {
	c := mustSym(t)
	if _, err := Unwrap([]byte("zzz"), c); err == nil {
		t.Fatal("unwrapped garbage")
	}
	if _, err := Unwrap(nil, nil); err == nil {
		t.Fatal("unwrapped with nil cipher")
	}
}

func TestUnwrapBadLength(t *testing.T) {
	c := mustSym(t)
	// Body claims more payload than present.
	body := []byte{0, 0, 0, 200, 'x'}
	ct, err := c.Seal(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unwrap(ct, c); err == nil {
		t.Fatal("accepted overlong declared payload")
	}
}

func TestOnionPropertyRoundTrip(t *testing.T) {
	destCipher := mustSym(t)
	hops, ciphers := buildTestHops(t, 4)
	f := func(payload []byte, destRaw uint16) bool {
		dest := NodeID(destRaw % 1000)
		data, err := buildWithRand(dest, payload, hops, destCipher, 0, rand.Reader)
		if err != nil {
			return false
		}
		cur := data
		for k := range hops {
			p, err := Peel(cur, ciphers[k])
			if err != nil {
				return false
			}
			if k == len(hops)-1 && (!p.Deliver || p.Dest != dest) {
				return false
			}
			cur = p.Inner
		}
		got, err := Unwrap(cur, destCipher)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildOnionK3(b *testing.B) {
	hops, _ := buildTestHops(b, 3)
	destCipher := mustSym(b)
	payload := bytes.Repeat([]byte("m"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(1, payload, hops, destCipher, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeel(b *testing.B) {
	hops, ciphers := buildTestHops(b, 3)
	destCipher := mustSym(b)
	data, err := Build(1, bytes.Repeat([]byte("m"), 256), hops, destCipher, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Peel(data, ciphers[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassicOnionRoutingRSA exercises the paper's Figs. 1-2
// construction: classic onion routing with per-router public keys
// (hybrid RSA-OAEP layers) instead of group-shared symmetric keys —
// the degenerate g=1 case the paper generalizes.
func TestClassicOnionRoutingRSA(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA keygen")
	}
	const K = 3
	routers := make([]*HybridCipher, K)
	hops := make([]Hop, K)
	for i := range routers {
		priv, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			t.Fatal(err)
		}
		router, err := NewHybridCipher(priv)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = router
		// The source only holds the router's PUBLIC key.
		sealer, err := NewHybridSealer(&priv.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = Hop{Group: GroupID(i + 1), Cipher: sealer}
	}
	destPriv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	destRouter, err := NewHybridCipher(destPriv)
	if err != nil {
		t.Fatal(err)
	}
	destSealer, err := NewHybridSealer(&destPriv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("E(PK_r1, E(PK_r2, E(PK_r3, m))) per Fig. 1")
	data, err := Build(9, msg, hops, destSealer, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := data
	for k := 0; k < K; k++ {
		p, err := Peel(cur, routers[k])
		if err != nil {
			t.Fatalf("router %d peel: %v", k, err)
		}
		if k < K-1 && p.NextGroup != GroupID(k+2) {
			t.Fatalf("router %d next = %d", k, p.NextGroup)
		}
		cur = p.Inner
	}
	got, err := Unwrap(cur, destRouter)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("classic RSA onion round trip failed")
	}
}

func TestOnionMixedCipherHops(t *testing.T) {
	// A single onion can mix symmetric group layers with a hybrid RSA
	// layer (e.g. a high-security relay with its own keypair).
	if testing.Short() {
		t.Skip("RSA keygen")
	}
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rsaRouter, err := NewHybridCipher(priv)
	if err != nil {
		t.Fatal(err)
	}
	rsaSealer, err := NewHybridSealer(&priv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	sym := mustSym(t)
	destCipher := mustSym(t)
	hops := []Hop{
		{Group: 1, Cipher: sym},
		{Group: 2, Cipher: rsaSealer},
	}
	data, err := Build(5, []byte("mixed"), hops, destCipher, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Peel(data, sym)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Peel(p1.Inner, rsaRouter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unwrap(p2.Inner, destCipher)
	if err != nil || !bytes.Equal(got, []byte("mixed")) {
		t.Fatalf("mixed-cipher onion failed: %q, %v", got, err)
	}
}
