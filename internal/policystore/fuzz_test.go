package policystore

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes as version 1's manifest.json and
// params.bin and as the store's CURRENT pointer, then drives every
// reader. None may panic; Get(1) may succeed only when params.bin
// matches the manifest's length and CRC; Latest must agree with Get(1);
// and List may only return manifests naming their own directory's
// version.
func FuzzStoreGet(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	v, err := s.Put(PutOptions{Params: []byte("seed params blob"), Source: "train", Metrics: map[string]float64{"avg_reward": -1.5}})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Promote(v); err != nil {
		f.Fatal(err)
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	manifest := read(filepath.Join(s.Root(), versionDir(v), manifestName))
	params := read(filepath.Join(s.Root(), versionDir(v), paramsName))
	cur := read(filepath.Join(s.Root(), currentName))
	f.Add(manifest, params, cur)
	for _, keep := range []float64{0, 0.5, 0.99} {
		f.Add(manifest[:int(keep*float64(len(manifest)))], params, cur)
		f.Add(manifest, params[:int(keep*float64(len(params)))], cur)
		f.Add(manifest, params, cur[:int(keep*float64(len(cur)))])
	}

	f.Fuzz(func(t *testing.T, manifest, params, cur []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, versionDir(1))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{
			filepath.Join(dir, manifestName): manifest,
			filepath.Join(dir, paramsName):   params,
			filepath.Join(root, currentName): cur,
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}

		ck, getErr := s.Get(1)
		if getErr == nil {
			m := ck.Manifest
			if len(params) != m.ParamsBytes || crc32.ChecksumIEEE(params) != m.ParamsCRC32 || !bytes.Equal(ck.Params, params) {
				t.Fatalf("Get(1) served params (%d bytes, crc %08x) the manifest does not vouch for (%d bytes, crc %08x)",
					len(params), crc32.ChecksumIEEE(params), m.ParamsBytes, m.ParamsCRC32)
			}
		}
		if _, err := s.Latest(); (err == nil) != (getErr == nil) {
			t.Fatalf("Latest err = %v but Get(1) err = %v", err, getErr)
		}
		list, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range list {
			if m.Version != 1 {
				t.Fatalf("List returned a manifest claiming version %d from %s", m.Version, versionDir(1))
			}
		}
		_, _ = s.Active() // a bad CURRENT must be an error, never a panic
	})
}
