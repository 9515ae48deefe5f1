package policystore

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Frozen clock keeps manifests stable across sub-second test runs.
	tick := int64(0)
	s.now = func() time.Time { tick++; return time.Unix(1700000000+tick, 0) }
	return s
}

func mustPut(t *testing.T, s *Store, opts PutOptions) int {
	t.Helper()
	v, err := s.Put(opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStorePutGetPromote(t *testing.T) {
	s := testStore(t)
	params := []byte("params-blob-v1")
	v1 := mustPut(t, s, PutOptions{
		Params: params, Source: "train",
		TrainConfig: "episodes=10", Metrics: map[string]float64{"avg_reward": -1.5},
	})
	if v1 != 1 {
		t.Fatalf("first version = %d, want 1", v1)
	}
	v2 := mustPut(t, s, PutOptions{Params: []byte("params-blob-v2"), Parent: v1, Source: "bench"})
	if v2 != 2 {
		t.Fatalf("second version = %d, want 2", v2)
	}

	ck, err := s.Get(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Params, params) {
		t.Fatal("round-tripped params differ")
	}
	if ck.Manifest.Source != "train" || ck.Manifest.TrainConfig != "episodes=10" {
		t.Fatalf("manifest metadata lost: %+v", ck.Manifest)
	}
	if ck.Manifest.Metrics["avg_reward"] != -1.5 {
		t.Fatalf("metrics lost: %+v", ck.Manifest.Metrics)
	}
	ck2, err := s.Get(v2)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Manifest.Parent != v1 {
		t.Fatalf("parent = %d, want %d", ck2.Manifest.Parent, v1)
	}

	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Version != 1 || list[1].Version != 2 {
		t.Fatalf("list = %+v", list)
	}

	// Promotion and rollback.
	if a, _ := s.Active(); a != 0 {
		t.Fatalf("fresh store active = %d, want 0", a)
	}
	if err := s.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(v2); err != nil {
		t.Fatal(err)
	}
	if a, _ := s.Active(); a != v2 {
		t.Fatalf("active = %d, want %d", a, v2)
	}
	back, err := s.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 {
		t.Fatalf("rollback landed on %d, want %d", back, v1)
	}
	if a, _ := s.Active(); a != v1 {
		t.Fatalf("active after rollback = %d, want %d", a, v1)
	}
	if _, err := s.Rollback(); err == nil {
		t.Fatal("second rollback should fail: nothing to roll back to")
	}
}

func TestStoreLatestSkipsCorruptTail(t *testing.T) {
	s := testStore(t)
	v1 := mustPut(t, s, PutOptions{Params: []byte("good")})
	v2 := mustPut(t, s, PutOptions{Params: []byte("soon-corrupt")})

	// Flip a byte in v2's params blob: Get must refuse it, Latest must
	// fall back to v1.
	path := filepath.Join(s.Root(), versionDir(v2), paramsName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(v2); err == nil {
		t.Fatal("Get served a corrupt version")
	}
	latest, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Manifest.Version != v1 {
		t.Fatalf("Latest = %d, want fallback to %d", latest.Manifest.Version, v1)
	}
	// Promotion of the corrupt version must be refused.
	if err := s.Promote(v2); err == nil {
		t.Fatal("Promote accepted a corrupt version")
	}
}

func TestStoreListSkipsHalfWrittenVersion(t *testing.T) {
	s := testStore(t)
	mustPut(t, s, PutOptions{Params: []byte("good")})
	// Simulate a torn publish: a version directory without a manifest.
	if err := os.MkdirAll(filepath.Join(s.Root(), versionDir(7)), 0o755); err != nil {
		t.Fatal(err)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Version != 1 {
		t.Fatalf("list should hold only the good version, got %+v", list)
	}
	// The next Put must still pick a fresh number above the torn one.
	v := mustPut(t, s, PutOptions{Params: []byte("next")})
	if v != 8 {
		t.Fatalf("next version = %d, want 8 (above the torn v000007)", v)
	}
}

func TestStoreTruncatedBlobDetected(t *testing.T) {
	s := testStore(t)
	v := mustPut(t, s, PutOptions{Params: []byte("0123456789")})
	path := filepath.Join(s.Root(), versionDir(v), paramsName)
	if err := os.WriteFile(path, []byte("01234"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(v); err == nil {
		t.Fatal("Get served a version with a truncated params blob")
	}
}

// TestStoreLoadsExperienceBlobVersions: a version written when the
// store still kept an experience blob (manifest fields
// experience_crc32/experience_bytes plus the blob file, here
// truncated) loads with its params intact and is listed; the retired
// blob is never opened.
func TestStoreLoadsExperienceBlobVersions(t *testing.T) {
	s := testStore(t)
	params := []byte("0123456789")
	dir := filepath.Join(s.Root(), versionDir(1))
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := fmt.Sprintf(`{
  "version": 1,
  "created_at_unix": 1700000000,
  "source": "online",
  "params_crc32": %d,
  "params_bytes": %d,
  "experience_crc32": %d,
  "experience_bytes": 6
}`, crc32.ChecksumIEEE(params), len(params), crc32.ChecksumIEEE([]byte("abcdef")))
	for name, data := range map[string][]byte{
		manifestName:     []byte(manifest),
		paramsName:       params,
		"experience.bin": []byte("abc"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := s.Get(1)
	if err != nil {
		t.Fatalf("Get of an experience-blob version: %v", err)
	}
	if !reflect.DeepEqual(ck.Params, params) || ck.Manifest.Source != "online" {
		t.Fatalf("loaded %q from %+v", ck.Params, ck.Manifest)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Version != 1 {
		t.Fatalf("list = %+v, want version 1", list)
	}
	if v := mustPut(t, s, PutOptions{Params: []byte("next")}); v != 2 {
		t.Fatalf("next version = %d, want 2", v)
	}
}

func TestStoreGC(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 5; i++ {
		mustPut(t, s, PutOptions{Params: []byte{byte(i)}})
	}
	if err := s.Promote(1); err != nil { // active pins an old version
		t.Fatal(err)
	}
	removed, err := s.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	// Keep newest two (4, 5) and the active (1); remove 2 and 3.
	if !reflect.DeepEqual(removed, []int{2, 3}) {
		t.Fatalf("removed %v, want [2 3]", removed)
	}
	list, _ := s.List()
	got := make([]int, 0, len(list))
	for _, m := range list {
		got = append(got, m.Version)
	}
	if !reflect.DeepEqual(got, []int{1, 4, 5}) {
		t.Fatalf("surviving versions %v, want [1 4 5]", got)
	}
	if _, err := s.Get(1); err != nil {
		t.Fatalf("active version collected: %v", err)
	}
}

func TestStoreUpdateMetrics(t *testing.T) {
	s := testStore(t)
	v := mustPut(t, s, PutOptions{Params: []byte("p"), Metrics: map[string]float64{"a": 1}})
	if err := s.UpdateMetrics(v, map[string]float64{"b": 2}); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Metrics["a"] != 1 || ck.Manifest.Metrics["b"] != 2 {
		t.Fatalf("metrics after update: %+v", ck.Manifest.Metrics)
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	s := testStore(t)
	const n = 16
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			v, err := s.Put(PutOptions{Params: []byte{byte(i)}})
			if err != nil {
				t.Error(err)
			}
			done <- v
		}(i)
	}
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		v := <-done
		if seen[v] {
			t.Fatalf("version %d assigned twice", v)
		}
		seen[v] = true
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != n {
		t.Fatalf("%d versions listed, want %d", len(list), n)
	}
}
