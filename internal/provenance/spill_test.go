package provenance

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSpillRoundTripBitIdentical(t *testing.T) {
	r := testRecorder(32)
	var buf bytes.Buffer
	r.AttachSink(&buf, 16)

	// Feature values chosen to catch any lossy float handling: an
	// irrational, a denormal, a negative zero, and an extreme.
	feats := []float64{math.Pi, 5e-324, math.Copysign(0, -1), 1e308, -17.25}
	scores := []float64{0.125, -3.75, math.Inf(1)}
	r.Record(KindSchedule, 7, "", 4, feats, scores, 2, 1, 0)
	r.Record(KindAdmit, 9, "tenant-a", 2, feats[:3], scores[:1], 0, 0, 0)
	r.JoinOutcome(KindSchedule, 7, Outcome{LatencySecs: 1.0 / 3.0, DeadlineMet: true, DurPredErr: -0.001, MemPredErr: 2.5})
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := r.Recent(2)
	if len(got) != len(want) {
		t.Fatalf("reloaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.QueryID != w.QueryID || g.Tenant != w.Tenant ||
			g.PolicyVersion != w.PolicyVersion || g.UnixNanos != w.UnixNanos ||
			g.Action != w.Action || g.ActionArg != w.ActionArg || g.Heuristic != w.Heuristic {
			t.Fatalf("record %d header mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if g.Outcome != w.Outcome {
			t.Fatalf("record %d outcome mismatch: got %+v want %+v", i, g.Outcome, w.Outcome)
		}
		if len(g.Features) != len(w.Features) || len(g.Scores) != len(w.Scores) {
			t.Fatalf("record %d vector lengths differ", i)
		}
		for j := range w.Features {
			if math.Float64bits(g.Features[j]) != math.Float64bits(w.Features[j]) {
				t.Fatalf("record %d feature %d not bit-identical: %x vs %x",
					i, j, math.Float64bits(g.Features[j]), math.Float64bits(w.Features[j]))
			}
		}
		for j := range w.Scores {
			if math.Float64bits(g.Scores[j]) != math.Float64bits(w.Scores[j]) {
				t.Fatalf("record %d score %d not bit-identical", i, j)
			}
		}
	}
	if !got[0].Outcome.Joined || !got[0].Outcome.DeadlineMet {
		t.Fatalf("joined outcome did not survive the round trip: %+v", got[0].Outcome)
	}
}

// TestSpillNodeIDRoundTrip pins the cluster attribution path: a
// recorder stamped with a node identity spills it, and a merged read
// keeps each record's origin.
func TestSpillNodeIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, node := range []string{"node-0", "node-1"} {
		r := testRecorder(8)
		r.SetNodeID(node)
		r.AttachSink(&buf, 4)
		r.Record(KindSchedule, 5, "", 3, []float64{1, 2}, []float64{0.5}, 1, 0, 1)
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 2 || got[0].NodeID != "node-0" || got[1].NodeID != "node-1" {
		t.Fatalf("merged trace lost node attribution: %+v", got)
	}
}

// v1Frame hand-encodes one format-version-1 frame (no node-ID field)
// holding a single joined admission record. The v1 layout is frozen
// history, not shared code.
func v1Frame() []byte {
	var payload bytes.Buffer
	putU32(&payload, 1) // count
	putU64(&payload, 42)
	payload.WriteByte(byte(KindAdmit))
	putU64(&payload, uint64(int64(9)))
	tenant := "acme"
	var tl [2]byte
	binary.LittleEndian.PutUint16(tl[:], uint16(len(tenant)))
	payload.Write(tl[:])
	payload.WriteString(tenant)
	// No nodeID field in v1.
	putU32(&payload, uint32(int32(3)))  // policyVersion
	putU64(&payload, uint64(int64(17))) // unixNanos
	putU32(&payload, uint32(int32(1)))  // action
	putU32(&payload, uint32(int32(0)))  // actionArg
	putU32(&payload, uint32(int32(1)))  // heuristic
	payload.WriteByte(1 | 2)            // joined, deadlineMet
	putU64(&payload, math.Float64bits(0.25))
	putU64(&payload, math.Float64bits(-0.5))
	putU64(&payload, math.Float64bits(2.0))
	putU32(&payload, 2)
	putU64(&payload, math.Float64bits(1.5))
	putU64(&payload, math.Float64bits(-1.5))
	putU32(&payload, 1)
	putU64(&payload, math.Float64bits(0.75))
	return frame(spillVersionV1, payload.Bytes())
}

// frame wraps payload in a frame header of the given format version.
func frame(version byte, payload []byte) []byte {
	var b bytes.Buffer
	b.Write(spillMagic[:])
	b.WriteByte(version)
	putU32(&b, uint32(len(payload)))
	putU32(&b, crc32.ChecksumIEEE(payload))
	b.Write(payload)
	return b.Bytes()
}

// TestReadAllDecodesV1Frames pins backward compatibility: traces
// spilled before the node-ID field existed (format version 1) must
// still load, with NodeID empty.
func TestReadAllDecodesV1Frames(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(v1Frame()))
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d records, want 1", len(got))
	}
	r := got[0]
	if r.Seq != 42 || r.Kind != KindAdmit || r.QueryID != 9 || r.Tenant != "acme" ||
		r.NodeID != "" || r.PolicyVersion != 3 || r.UnixNanos != 17 ||
		r.Action != 1 || r.Heuristic != 1 || !r.Outcome.Joined || !r.Outcome.DeadlineMet {
		t.Fatalf("v1 record decoded wrong: %+v", r)
	}
	if len(r.Features) != 2 || len(r.Scores) != 1 || r.Features[0] != 1.5 || r.Scores[0] != 0.75 {
		t.Fatalf("v1 vectors decoded wrong: %+v", r)
	}
}

func TestSpillPeriodicFlush(t *testing.T) {
	r := testRecorder(32)
	var buf bytes.Buffer
	r.AttachSink(&buf, 4)
	for i := 0; i < 10; i++ {
		r.Record(KindSchedule, int64(i), "", 0, []float64{float64(i)}, nil, 0, 0, 0)
	}
	// 10 records with every=4: two automatic frames (8 records) written.
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll mid-stream: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("auto-spilled %d records, want 8", len(got))
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err = ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 10 {
		t.Fatalf("after Flush: %d records (%v), want 10", len(got), err)
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if st := r.Stats(); st.Spilled != 10 {
		t.Fatalf("stats.Spilled = %d, want 10", st.Spilled)
	}
}

func TestSpillEveryClampedToHalfCapacity(t *testing.T) {
	r := testRecorder(8)
	var buf bytes.Buffer
	r.AttachSink(&buf, 1000) // far past cap/2; must clamp to 4
	for i := 0; i < 6; i++ {
		r.Record(KindSchedule, int64(i), "", 0, []float64{1}, nil, 0, 0, 0)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("clamped sink never flushed; records would be evicted unspilled")
	}
}

func TestReadAllRejectsCorruption(t *testing.T) {
	r := testRecorder(8)
	var buf bytes.Buffer
	r.AttachSink(&buf, 4)
	r.Record(KindSchedule, 1, "t", 0, []float64{1, 2}, []float64{3}, 0, 0, 0)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)

	// Flip one payload byte: CRC must reject the frame.
	bad := append([]byte(nil), clean...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// Bad magic.
	bad = append([]byte(nil), clean...)
	bad[0] = 'X'
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Unsupported version.
	bad = append([]byte(nil), clean...)
	bad[4] = 99
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}

	// Truncated payload.
	if _, err := ReadAll(bytes.NewReader(clean[:len(clean)-3])); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// The clean stream still reads.
	if recs, err := ReadAll(bytes.NewReader(clean)); err != nil || len(recs) != 1 {
		t.Fatalf("clean stream: %d records, err %v", len(recs), err)
	}
}

func TestReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecorder(8)
	r.AttachSink(f, 4)
	r.Record(KindAdmit, 3, "t2", 1, []float64{0.5}, []float64{0.9}, 0, 0, 0)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(recs) != 1 || recs[0].Tenant != "t2" || recs[0].Kind != KindAdmit {
		t.Fatalf("ReadFile = %+v", recs)
	}
}

func TestSpillSkipsEvictedRecords(t *testing.T) {
	// Manually-driven flush after a wrap: evicted records are skipped,
	// not mis-encoded from overwritten slots.
	r := testRecorder(4)
	var buf bytes.Buffer
	r.mu.Lock()
	r.sink = &sinkState{w: &buf, every: 1 << 30} // never auto-flush
	r.mu.Unlock()
	for i := 0; i < 10; i++ {
		r.Record(KindSchedule, int64(i), "", 0, []float64{float64(i)}, nil, 0, 0, 0)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("spilled %d records, want the 4 still ringed", len(got))
	}
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("spilled seqs %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
}

// FuzzReadAll feeds arbitrary streams to the spill decoder: ReadAll
// must never panic, and any stream it accepts must re-encode to a
// stream that decodes to the same records. Each input is also read
// with its frame lengths and CRCs rewritten to match, so mutated
// payloads reach the record decoder instead of stopping at the CRC.
func FuzzReadAll(f *testing.F) {
	r := testRecorder(8)
	r.SetNodeID("node-0")
	var spill bytes.Buffer
	r.AttachSink(&spill, 4)
	r.Record(KindSchedule, 7, "", 4, []float64{math.Pi, math.Copysign(0, -1)}, []float64{0.5, math.Inf(1)}, 2, 1, 0)
	r.Record(KindAdmit, 9, "tenant-a", 2, []float64{1}, []float64{0.25}, 0, 0, 0)
	r.JoinOutcome(KindSchedule, 7, Outcome{LatencySecs: 0.5, DeadlineMet: true})
	if err := r.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(spill.Bytes())
	f.Add(v1Frame())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealFrames(data)} {
			recs, err := ReadAll(bytes.NewReader(in))
			if err != nil {
				continue
			}
			// The encoding writes every field, floats as raw bits, so
			// equal encodings mean bit-identical records.
			first := encodeFrame(recs)
			again, err := ReadAll(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-encoded %d accepted records, then rejected them: %v", len(recs), err)
			}
			if second := encodeFrame(again); !bytes.Equal(first, second) {
				t.Fatalf("%d accepted records changed across a re-encode", len(recs))
			}
		}
	})
}

// encodeFrame writes recs as one current-version frame.
func encodeFrame(recs []Record) []byte {
	var payload bytes.Buffer
	putU32(&payload, uint32(len(recs)))
	for i := range recs {
		encodeRecord(&payload, &recs[i])
	}
	return frame(spillVersion, payload.Bytes())
}

// sealFrames returns a copy of data in which every frame header's
// payload length is clamped to the bytes that follow it and its CRC is
// recomputed over that payload.
func sealFrames(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+13 <= len(out); {
		plen := int(binary.LittleEndian.Uint32(out[off+5:]))
		if rest := len(out) - off - 13; plen > rest {
			plen = rest
			binary.LittleEndian.PutUint32(out[off+5:], uint32(plen))
		}
		binary.LittleEndian.PutUint32(out[off+9:], crc32.ChecksumIEEE(out[off+13:off+13+plen]))
		off += 13 + plen
	}
	return out
}
