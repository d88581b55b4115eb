package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

const rotSpec = `
protocol rot;
root seq m end {
    uint a 2;
    uint b 4;
    bytes payload fixed 8;
}
`

func newTestRotation(t *testing.T, seed int64) *Rotation {
	t.Helper()
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRekeyDeterministicAcrossPeers(t *testing.T) {
	a, b := newTestRotation(t, 11), newTestRotation(t, 11)
	for _, r := range []*Rotation{a, b} {
		if err := r.Rekey(5, 9999); err != nil {
			t.Fatal(err)
		}
	}
	for _, epoch := range []uint64{0, 4, 5, 6, 100} {
		pa, err := a.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Version(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Seed != pb.Seed {
			t.Errorf("epoch %d: peers diverged (%d vs %d)", epoch, pa.Seed, pb.Seed)
		}
		if pa.Trace() != pb.Trace() {
			t.Errorf("epoch %d: transformation traces diverged", epoch)
		}
	}
}

func TestRekeyBoundary(t *testing.T) {
	r := newTestRotation(t, 3)
	before, err := r.Version(4)
	if err != nil {
		t.Fatal(err)
	}
	beforeAt5, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rekey(5, 4242); err != nil {
		t.Fatal(err)
	}
	// Epochs before the boundary keep their family...
	after, err := r.Version(4)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seed != before.Seed {
		t.Errorf("pre-boundary epoch reseeded: %d -> %d", before.Seed, after.Seed)
	}
	// ...epochs at/past it switch (the cached old version is invalidated).
	afterAt5, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if afterAt5.Seed == beforeAt5.Seed {
		t.Error("post-boundary epoch kept the old family")
	}
	// A rekey cannot move backwards past a recorded point.
	if err := r.Rekey(4, 1); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Errorf("backwards rekey: %v", err)
	}
	// Re-proposing the same boundary replaces the seed (the session
	// layer's tie-break).
	if err := r.Rekey(5, 5555); err != nil {
		t.Fatal(err)
	}
	replaced, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if replaced.Seed == afterAt5.Seed {
		t.Error("same-boundary rekey did not replace the seed")
	}
}

func TestDropRekey(t *testing.T) {
	r := newTestRotation(t, 13)
	base, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rekey(5, 321); err != nil {
		t.Fatal(err)
	}
	switched, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if switched.Seed == base.Seed {
		t.Fatal("rekey did not switch the family")
	}
	// Mismatched drops are rejected; the matching drop restores the
	// previous family exactly.
	if err := r.DropRekey(5, 999); err == nil {
		t.Error("mismatched DropRekey accepted")
	}
	if err := r.DropRekey(5, 321); err != nil {
		t.Fatal(err)
	}
	restored, err := r.Version(5)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seed != base.Seed {
		t.Errorf("dropped rekey left seed %d, want %d", restored.Seed, base.Seed)
	}
	if err := r.DropRekey(5, 321); err == nil {
		t.Error("double DropRekey accepted")
	}
}

func TestRotationCacheBounded(t *testing.T) {
	r := newTestRotation(t, 7)
	r.Bound(4)
	for epoch := uint64(0); epoch < 100; epoch++ {
		if _, err := r.Version(epoch); err != nil {
			t.Fatal(err)
		}
		if n := r.CacheLen(); n > 4 {
			t.Fatalf("epoch %d: cache holds %d versions, bound 4", epoch, n)
		}
	}
	// Evicted epochs recompile to the same version.
	p0a, err := r.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newTestRotation(t, 7)
	p0b, err := fresh.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	if p0a.Seed != p0b.Seed || p0a.Trace() != p0b.Trace() {
		t.Error("recompiled evicted epoch differs from the original compile")
	}
}

func TestControlPad(t *testing.T) {
	a, b := newTestRotation(t, 19), newTestRotation(t, 19)
	// Shared-history peers derive identical pads.
	if !bytes.Equal(a.ControlPad(3, 20), b.ControlPad(3, 20)) {
		t.Error("same-history pads differ")
	}
	// Pads vary by epoch and by family.
	if bytes.Equal(a.ControlPad(3, 20), a.ControlPad(4, 20)) {
		t.Error("pad does not vary with epoch")
	}
	other := newTestRotation(t, 20)
	if bytes.Equal(a.ControlPad(3, 20), other.ControlPad(3, 20)) {
		t.Error("pad does not vary with master seed")
	}
	// A rekey changes the pad at and past the boundary only.
	before3, before9 := a.ControlPad(3, 20), a.ControlPad(9, 20)
	if err := a.Rekey(5, 777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ControlPad(3, 20), before3) {
		t.Error("rekey changed a pre-boundary pad")
	}
	if bytes.Equal(a.ControlPad(9, 20), before9) {
		t.Error("rekey left a post-boundary pad unchanged")
	}
}

// TestViewIndependentRekey is the share-safety property behind the
// Endpoint API: views of one Rotation rekey independently, so a rekey
// negotiated on one session never switches the family under another.
func TestViewIndependentRekey(t *testing.T) {
	r := newTestRotation(t, 21)
	v1, v2 := r.View(), r.View()

	base, err := v2.Version(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Rekey(5, 777); err != nil {
		t.Fatal(err)
	}
	// v1 sees the new family past the boundary...
	switched, err := v1.Version(6)
	if err != nil {
		t.Fatal(err)
	}
	if switched.Seed == base.Seed {
		t.Error("rekeyed view kept the base family")
	}
	// ...v2 and the Rotation's default view stay on the base family.
	still, err := v2.Version(6)
	if err != nil {
		t.Fatal(err)
	}
	if still.Seed != base.Seed {
		t.Error("rekey on one view leaked into a sibling view")
	}
	direct, err := r.Version(6)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Seed != base.Seed {
		t.Error("rekey on one view leaked into the default view")
	}
	// Pads diverge accordingly: v1 masks with the new family at 6.
	if bytes.Equal(v1.ControlPad(6, 20), v2.ControlPad(6, 20)) {
		t.Error("post-rekey pads identical across views")
	}
	if !bytes.Equal(v1.ControlPad(4, 20), v2.ControlPad(4, 20)) {
		t.Error("pre-boundary pads differ across views")
	}
}

// TestViewSharedCompileCache checks views actually share compiled
// versions: the same (family, epoch) resolves to the same *Protocol
// across views, and a rekeyed view's old-family entries remain valid
// for its siblings.
func TestViewSharedCompileCache(t *testing.T) {
	r := newTestRotation(t, 23)
	v1, v2 := r.View(), r.View()
	p1, err := v1.Version(3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := v2.Version(3)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("sibling views compiled the same version twice")
	}
	n := r.CacheLen()
	if err := v1.Rekey(2, 999); err != nil {
		t.Fatal(err)
	}
	// Rekey is metadata-only: nothing is evicted.
	if got := r.CacheLen(); got != n {
		t.Errorf("rekey changed cache population: %d -> %d", n, got)
	}
	// v2 still hits the cached base-family version.
	p2b, err := v2.Version(3)
	if err != nil {
		t.Fatal(err)
	}
	if p2b != p2 {
		t.Error("sibling lost its cached version after an unrelated rekey")
	}
}

// TestVersionForConcurrent races many goroutines over a few epochs on
// one Rotation (run under -race): every goroutine must observe the same
// compiled version per epoch, and the compile dedup must keep the cache
// to one entry per (family, epoch).
func TestVersionForConcurrent(t *testing.T) {
	r := newTestRotation(t, 29)
	const workers, epochs = 16, 8
	got := make([][epochs]*Protocol, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := r.View()
			for e := 0; e < epochs; e++ {
				p, err := v.Version(uint64(e))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][e] = p
			}
		}(w)
	}
	wg.Wait()
	for e := 0; e < epochs; e++ {
		for w := 1; w < workers; w++ {
			if got[w][e] != got[0][e] {
				t.Fatalf("epoch %d: worker %d observed a different compiled version", e, w)
			}
		}
	}
	if n := r.CacheLen(); n != epochs {
		t.Errorf("cache holds %d versions after dedup, want %d", n, epochs)
	}
}

// TestRotationStats pins the compile accounting the observability layer
// reports: the eager epoch-0 probe counts, and is timed, as one compile;
// every further epoch's first Version adds one; repeat lookups are pure
// cache hits; and rekeys/rollbacks on any view are tallied on the shared
// Rotation.
func TestRotationStats(t *testing.T) {
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fresh := r.Stats()
	if fresh.Compiles != 1 {
		t.Fatalf("compiles after construction = %d, want 1 (the epoch-0 probe)", fresh.Compiles)
	}
	// The probe is a demand compile, so it is timed as one.
	if fresh.DemandCompileNanos.Count != fresh.DemandCompiles() {
		t.Fatalf("timed demand compiles = %d, counted = %d", fresh.DemandCompileNanos.Count, fresh.DemandCompiles())
	}
	for e := uint64(1); e <= 3; e++ {
		if _, err := r.Version(e); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Compiles != 4 {
		t.Fatalf("compiles after epochs 1..3 = %d, want 4", st.Compiles)
	}
	if st.PrefetchCompiles != 0 {
		t.Fatalf("prefetch compiles = %d with no prefetcher, want 0", st.PrefetchCompiles)
	}
	// Warm lookups: hits only, no new compiles.
	for e := uint64(0); e <= 3; e++ {
		if _, err := r.Version(e); err != nil {
			t.Fatal(err)
		}
	}
	st2 := r.Stats()
	if st2.Compiles != st.Compiles {
		t.Fatalf("warm lookups compiled: %d -> %d", st.Compiles, st2.Compiles)
	}
	if st2.Cache.Hits <= st.Cache.Hits {
		t.Fatalf("warm lookups did not hit the cache: %d -> %d", st.Cache.Hits, st2.Cache.Hits)
	}

	v := r.View()
	if err := v.Rekey(5, 0xABC); err != nil {
		t.Fatal(err)
	}
	if err := v.DropRekey(5, 0xABC); err != nil {
		t.Fatal(err)
	}
	st3 := r.Stats()
	if st3.Rekeys != 1 || st3.RekeyRollbacks != 1 {
		t.Fatalf("rekeys/rollbacks = %d/%d, want 1/1", st3.Rekeys, st3.RekeyRollbacks)
	}
}

// TestRotationPrefetch: a prefetched epoch is attributed to the
// prefetcher, and the session-facing Version that follows is a pure
// cache hit — zero demand compiles, the property the epoch-boundary
// daemon exists for.
func TestRotationPrefetch(t *testing.T) {
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := r.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if !compiled {
		t.Fatal("first Prefetch(1) reported compiled=false")
	}
	compiled, err = r.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if compiled {
		t.Fatal("second Prefetch(1) recompiled a cached version")
	}
	before := r.Stats()
	p, err := r.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.Compiles != before.Compiles {
		t.Fatalf("Version(1) after Prefetch(1) compiled (%d -> %d)", before.Compiles, after.Compiles)
	}
	if after.DemandCompiles() != 1 { // the construction-time epoch-0 probe only
		t.Fatalf("demand compiles = %d, want 1", after.DemandCompiles())
	}
	// The prefetched version is the one served.
	direct, err := r.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	if p != direct {
		t.Fatal("Prefetch and Version disagree on the compiled version")
	}
}

// TestRotationPrefetchRekeyedViewUnaffected: prefetching the base
// family must not leak into a rekeyed view — its epochs are keyed under
// the fresh family and compile (or hit) independently.
func TestRotationPrefetchRekeyedViewUnaffected(t *testing.T) {
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	v := r.View()
	if err := v.Rekey(2, 0xF00); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Prefetch(2); err != nil {
		t.Fatal(err)
	}
	base, err := r.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	rekeyed, err := v.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	if base == rekeyed {
		t.Fatal("rekeyed view was served the prefetched base-family version")
	}
}

// TestRotationCompileDedup: concurrent first lookups of one version
// share a single compile; the joiners are counted as dedup hits.
func TestRotationCompileDedup(t *testing.T) {
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Version(1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Compiles != 2 { // epoch-0 probe + one shared compile of epoch 1
		t.Fatalf("compiles = %d, want 2 (one shared compile)", st.Compiles)
	}
	if st.CompileDedup+st.Cache.Hits < workers-1 {
		t.Fatalf("dedup (%d) + hits (%d) cannot cover the %d joining workers",
			st.CompileDedup, st.Cache.Hits, workers-1)
	}
}

// TestRotationMissAccounting: one cold lookup is one miss — the
// singleflight re-check must not double-count it — and warm lookups
// are pure hits, so hit-rate arithmetic stays honest.
func TestRotationMissAccounting(t *testing.T) {
	r, err := NewRotation(rotSpec, ObfuscationOptions{PerNode: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	base := r.Stats()
	if _, err := r.Version(1); err != nil { // cold: miss + compile
		t.Fatal(err)
	}
	if _, err := r.Version(1); err != nil { // warm: hit
		t.Fatal(err)
	}
	st := r.Stats()
	if d := st.Cache.Misses - base.Cache.Misses; d != 1 {
		t.Fatalf("cold lookup recorded %d misses, want 1", d)
	}
	if d := st.Cache.Hits - base.Cache.Hits; d != 1 {
		t.Fatalf("warm lookup recorded %d hits, want 1", d)
	}
}

// hasFamily reports whether seed is among the active families at cur.
func hasFamily(fams []ActiveFamily, seed int64) bool {
	for _, f := range fams {
		if f.Seed == seed {
			return true
		}
	}
	return false
}

// TestActiveFamilyLifecycle pins the family-liveness table the prefetch
// daemon draws from: a rekey registers its family, demand lookups keep
// it alive, idling past familyIdleEpochs prunes it — and, critically, a
// later demand lookup from the still-live session re-registers it, so
// prefetch warming is never lost permanently to an idle period.
func TestActiveFamilyLifecycle(t *testing.T) {
	rot := newTestRotation(t, 77)
	v := rot.View()
	const fam = int64(0xAA)
	if err := v.Rekey(5, fam); err != nil {
		t.Fatal(err)
	}
	if fams := rot.ActiveFamilies(5); !hasFamily(fams, fam) {
		t.Fatalf("family not registered at rekey: %v", fams)
	}
	// Demand traffic at epoch 9 keeps it alive through epoch 9+idle.
	if _, err := v.Version(9); err != nil {
		t.Fatal(err)
	}
	if fams := rot.ActiveFamilies(9 + familyIdleEpochs); !hasFamily(fams, fam) {
		t.Fatalf("family pruned while within the idle window")
	}
	// A long idle prunes it...
	if fams := rot.ActiveFamilies(100); hasFamily(fams, fam) {
		t.Fatalf("family survived a %d-epoch idle: %v", 100-9, fams)
	}
	// ...and the session's next demand lookup re-registers it.
	if _, err := v.Version(100); err != nil {
		t.Fatal(err)
	}
	fams := rot.ActiveFamilies(100)
	if !hasFamily(fams, fam) {
		t.Fatal("pruned family did not re-register on a demand lookup")
	}
	for _, f := range fams {
		if f.Seed == fam && f.From > 100 {
			t.Fatalf("re-registered family starts at %d, after the demanded epoch", f.From)
		}
	}
	// The base family is never tracked.
	if _, err := rot.Version(100); err != nil {
		t.Fatal(err)
	}
	if fams := rot.ActiveFamilies(100); hasFamily(fams, rot.opts.Seed) {
		t.Fatal("base family entered the liveness table")
	}
}
