package faultinject

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// assertIdle checks the state every production call site runs in: nothing
// armed, every point a no-op.
func assertIdle(t *testing.T) {
	t.Helper()
	if Enabled() {
		t.Fatal("Enabled() with no hook installed")
	}
	data := []byte("image")
	for p := Point(0); p < numPoints; p++ {
		if err := Fire(p); err != nil {
			t.Fatalf("idle Fire(%d) = %v", p, err)
		}
		if err := FireTag(p, "tag"); err != nil {
			t.Fatalf("idle FireTag(%d) = %v", p, err)
		}
		if out := Mutate(p, data); &out[0] != &data[0] || len(out) != len(data) {
			t.Fatalf("idle Mutate(%d) did not return its input", p)
		}
	}
}

// TestIdleIsFree: with no hook installed — production — a hook point costs
// one atomic load and allocates nothing.
func TestIdleIsFree(t *testing.T) {
	Reset()
	assertIdle(t)
	data := []byte("image")
	if a := testing.AllocsPerRun(100, func() {
		_ = Enabled()
		_ = Fire(ShardEval)
		_ = FireTag(RemoteServe, "replica")
		_ = Mutate(ImageBytes, data)
	}); a != 0 {
		t.Fatalf("idle hook points allocate %v times", a)
	}
}

// TestSetFireReset: each installer arms the registry, its hook runs at its
// point and at no other, clearing the last hook disarms it again, and Reset
// restores the idle state whatever is installed.
func TestSetFireReset(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")

	Set(ShardEval, func() error { return boom })
	if !Enabled() {
		t.Fatal("Set did not arm the registry")
	}
	if err := Fire(ShardEval); err != boom {
		t.Fatalf("Fire = %v, want the hook's error", err)
	}
	// A plain hook fires for every tag.
	if err := FireTag(ShardEval, "any"); err != boom {
		t.Fatalf("FireTag on a plain hook = %v, want the hook's error", err)
	}
	if err := Fire(SnippetGen); err != nil {
		t.Fatalf("a hook at ShardEval fired at SnippetGen: %v", err)
	}
	Set(ShardEval, nil)
	assertIdle(t)

	var gotTag string
	SetTag(RemoteServe, func(tag string) error { gotTag = tag; return boom })
	if err := FireTag(RemoteServe, "127.0.0.1:7801"); err != boom || gotTag != "127.0.0.1:7801" {
		t.Fatalf("FireTag = %v with tag %q, want the hook's error and the site's tag", err, gotTag)
	}
	// A tagged hook has no identity to match when the site supplies none.
	if err := Fire(RemoteServe); err != nil {
		t.Fatalf("Fire on a tagged hook = %v", err)
	}
	SetTag(RemoteServe, nil)
	assertIdle(t)

	SetMutator(ImageBytes, func(b []byte) []byte { return nil })
	if !Enabled() {
		t.Fatal("SetMutator did not arm the registry")
	}
	// A mutator is not a fire hook, and a fire hook is not a mutator.
	if err := Fire(ImageBytes); err != nil {
		t.Fatalf("Fire on a mutator = %v", err)
	}
	Set(ReloadSource, func() error { return boom })
	if out := Mutate(ReloadSource, []byte("x")); string(out) != "x" {
		t.Fatalf("Mutate on a fire hook returned %q", out)
	}
	// Clearing one of two hooks leaves the registry armed.
	SetMutator(ImageBytes, nil)
	if !Enabled() || Fire(ReloadSource) != boom {
		t.Fatal("clearing one hook disarmed another")
	}
	Reset()
	assertIdle(t)
}

// TestMutateNeverWritesThroughInput: Mutate returns whatever the mutator
// returns, and the package itself never touches the caller's slice — the
// input may be a read-only memory mapping of an image file.
func TestMutateNeverWritesThroughInput(t *testing.T) {
	Reset()
	defer Reset()
	image := []byte("XTIX\x04 a perfectly good image")
	pristine := append([]byte(nil), image...)

	SetMutator(ImageBytes, func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[5] ^= 0xFF
		return c
	})
	out := Mutate(ImageBytes, image)
	if bytes.Equal(out, image) || out[5] != image[5]^0xFF {
		t.Fatalf("Mutate returned %q, not the mutator's copy", out)
	}
	if !bytes.Equal(image, pristine) {
		t.Fatalf("input modified: %q", image)
	}

	replacement := []byte("something else entirely")
	SetMutator(ImageBytes, func([]byte) []byte { return replacement })
	if out := Mutate(ImageBytes, image); &out[0] != &replacement[0] {
		t.Fatal("Mutate did not return the mutator's slice")
	}
	if !bytes.Equal(image, pristine) {
		t.Fatalf("input modified: %q", image)
	}
}

// TestConcurrentSetFireReset: installs, clears and resets race against
// firing call sites without a data race (run under -race), and every Fire
// observes either no hook or a whole one.
func TestConcurrentSetFireReset(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	data := []byte("image")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := Fire(ShardEval); err != nil && err != boom {
					t.Errorf("Fire = %v", err)
				}
				if err := FireTag(RemoteServe, "r"); err != nil && err != boom {
					t.Errorf("FireTag = %v", err)
				}
				if out := Mutate(ImageBytes, data); len(out) != len(data) {
					t.Errorf("Mutate returned %d bytes", len(out))
				}
				_ = Enabled()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		Set(ShardEval, func() error { return boom })
		SetTag(RemoteServe, func(string) error { return boom })
		SetMutator(ImageBytes, func(b []byte) []byte { return append([]byte(nil), b...) })
		if i%3 == 0 {
			Reset()
		} else {
			Set(ShardEval, nil)
		}
	}
	close(stop)
	wg.Wait()
	Reset()
	assertIdle(t)
}
