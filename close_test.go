package abcfhe

// Close-semantics tests: the serving layer tears parties down from
// multiple paths (drain, deferred cleanup, signal handlers), so Close on
// every role must be idempotent and safe under concurrent invocation —
// a double Close must never double-close the lane engine's job channel.

import (
	"sync"
	"testing"
)

// TestCloseIdempotent: sequential double (and triple) Close on every role
// is a no-op, with and without a private engine installed.
func TestCloseIdempotent(t *testing.T) {
	for _, withWorkers := range []bool{false, true} {
		var opts []Option
		if withWorkers {
			opts = append(opts, WithWorkers(2))
		}
		owner, err := NewKeyOwner(Test, 1, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := owner.ExportPublicKey()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncryptor(pk, 3, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Test, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []interface{ Close() }{owner, enc, srv} {
			c.Close()
			c.Close()
			c.Close()
		}
	}
}

// TestCloseConcurrent: N goroutines all calling Close on the same party at
// once must not panic (run under -race in CI, this also proves the field
// access is synchronized).
func TestCloseConcurrent(t *testing.T) {
	srv, err := NewServer(Test, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			srv.Close()
		}()
	}
	close(start)
	wg.Wait()
}

// TestUseAfterCloseFallsBack: a closed party falls back to the shared
// default engine and keeps working (documented behavior) — the drain path
// may still flush a response after teardown started.
func TestUseAfterCloseFallsBack(t *testing.T) {
	owner, err := NewKeyOwner(Test, 7, 8, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncryptor(pk, 9, 10, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	msg := testMsgs(enc.Slots(), 1)[0]
	enc.Close()
	ct, err := enc.EncodeEncrypt(msg)
	if err != nil {
		t.Fatalf("EncodeEncrypt after Close: %v", err)
	}
	owner.Close()
	got, err := owner.DecryptDecode(ct)
	if err != nil {
		t.Fatalf("DecryptDecode after Close: %v", err)
	}
	if len(got) != enc.Slots() {
		t.Fatalf("decoded %d slots, want %d", len(got), enc.Slots())
	}
}
