package profile

import (
	"bytes"
	"testing"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/models"
	"duet/internal/vclock"
)

func TestCacheKeyStableAndSensitive(t *testing.T) {
	g1, _ := wideDeepPartition(t)
	g2, _ := wideDeepPartition(t)
	opts := compiler.DefaultOptions()
	k1 := CacheKey(g1, opts, 7)
	if k2 := CacheKey(g2, opts, 7); k1 != k2 {
		t.Fatalf("identical graphs hash differently: %q vs %q", k1, k2)
	}
	if k := CacheKey(g1, opts, 8); k == k1 {
		t.Fatal("salt change did not change the key")
	}
	opts2 := opts
	opts2.Fuse = !opts.Fuse
	if k := CacheKey(g1, opts2, 7); k == k1 {
		t.Fatal("compiler-option change did not change the key")
	}
	// A different model must hash differently.
	gs, err := models.Siamese(models.DefaultSiamese())
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.InferShapes(gs); err != nil {
		t.Fatal(err)
	}
	if k := CacheKey(gs, opts, 7); k == k1 {
		t.Fatal("different graphs collide")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	recs := []Record{{Index: 0, Summary: "a", Kernels: 1,
		Time: [2]vclock.Seconds{1e-3, 2e-3}}}
	c.Put("k", recs)
	got := c.Get("k")
	if got == nil || got[0] != recs[0] {
		t.Fatalf("Get returned %+v, want %+v", got, recs)
	}
	// The cache hands out copies: mutating the result must not poison it.
	got[0].Time[device.CPU] = 99
	if again := c.Get("k"); again[0].Time[device.CPU] != 1e-3 {
		t.Fatal("cache entry was mutated through a Get result")
	}
	if c.Get("missing") != nil {
		t.Fatal("miss returned records")
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 || loaded.Get("k") == nil {
		t.Fatalf("round-trip lost entries: len=%d", loaded.Len())
	}
	if loaded.Get("k")[0] != recs[0] {
		t.Fatalf("round-trip altered record: %+v", loaded.Get("k")[0])
	}
}

func TestMeasuredSourceCacheAndAccounting(t *testing.T) {
	_, p := wideDeepPartition(t)
	prof := New(device.NewPlatform(0))
	prof.Runs = 4
	cache := NewCache()
	src := &MeasuredSource{Profiler: prof, Cache: cache, Salt: 1}
	recs, err := src.Records(p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Subgraphs())
	st := src.Stats()
	if st.Subgraphs != n || st.CacheHits != 0 {
		t.Fatalf("cold stats %+v", st)
	}
	if want := 2 * n * prof.Runs; st.Microbenchmarks != want {
		t.Fatalf("microbenchmarks = %d, want %d (2 devices x %d subgraphs x %d runs)",
			st.Microbenchmarks, want, n, prof.Runs)
	}
	recs2, err := src.Records(p)
	if err != nil {
		t.Fatal(err)
	}
	st2 := src.Stats()
	if st2.CacheHits != 1 || st2.Microbenchmarks != 0 {
		t.Fatalf("warm stats %+v, want one cache hit and zero benchmarks", st2)
	}
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("cached record %d differs: %+v vs %+v", i, recs[i], recs2[i])
		}
	}
}
