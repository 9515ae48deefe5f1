package provenance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Spill format: a stream of self-delimiting frames, each holding a
// batch of records. Like policystore checkpoints, every frame carries a
// CRC32 (IEEE) over its payload and is verified before any byte of it
// is trusted; floats travel as raw IEEE-754 bits so a reloaded trace is
// bit-identical to what the policy saw. Frame layout (little-endian):
//
//	magic "LSPV" | u8 version | u32 payloadLen | u32 crc32(payload) | payload
//
// payload: u32 count, then per record:
//
//	u64 seq | u8 kind | i64 queryID | u16 tenantLen | tenant bytes |
//	u16 nodeIDLen | nodeID bytes (version >= 2) |
//	i32 policyVersion | i64 unixNanos | i32 action | i32 actionArg |
//	i32 heuristic | u8 outcomeFlags | f64 latency | f64 durPredErr |
//	f64 memPredErr | u32 nFeatures | f64... | u32 nScores | f64...
//
// outcomeFlags bits: 1 joined, 2 deadlineMet, 4 shed, 8 rejected.
//
// Version history: v1 had no nodeID field. The writer emits the
// current version; the reader accepts every version listed here, so
// traces recorded before the cluster work (and traces from mixed-age
// node fleets) keep loading — v1 records decode with NodeID "".

const (
	spillVersion    = 2
	spillVersionV1  = 1 // pre-cluster frames: no nodeID field
	maxFramePayload = 64 << 20
	maxVecLen       = 1 << 20
	maxTenantLen    = 1 << 12
	maxNodeIDLen    = 1 << 8
)

var spillMagic = [4]byte{'L', 'S', 'P', 'V'}

type sinkState struct {
	w       io.Writer
	every   int
	through uint64 // highest sequence already spilled
	buf     bytes.Buffer
	scratch [8]byte
	err     error
}

// AttachSink directs the recorder to spill each batch of `every` new
// records to w as one CRC-framed binary frame. every is clamped to at
// most half the ring capacity so records cannot be evicted before they
// spill. Call Flush before closing the underlying writer.
func (r *Recorder) AttachSink(w io.Writer, every int) {
	if r == nil || w == nil {
		return
	}
	if every <= 0 {
		every = 256
	}
	if max := len(r.ring) / 2; every > max && max > 0 {
		every = max
	}
	r.mu.Lock()
	r.sink = &sinkState{w: w, every: every, through: r.seq}
	r.mu.Unlock()
}

// Flush spills all not-yet-spilled records to the sink (no-op without
// one) and reports the first persistent sink error.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	err := r.flushLocked()
	r.mu.Unlock()
	return err
}

// flushLocked writes one frame covering (sink.through, r.seq]. Caller
// holds r.mu.
func (r *Recorder) flushLocked() error {
	s := r.sink
	if s == nil || s.err != nil {
		if s != nil {
			return s.err
		}
		return nil
	}
	if s.through >= r.seq {
		return nil
	}
	s.buf.Reset()
	count := 0
	mark := s.buf.Len()
	putU32(&s.buf, 0) // count placeholder
	spilledTo := s.through
	for seq := s.through + 1; seq <= r.seq; seq++ {
		slot := &r.ring[seq%uint64(len(r.ring))]
		if slot.Seq != seq {
			spilledTo = seq // evicted before spilling; skip
			continue
		}
		encodeRecord(&s.buf, slot)
		count++
		spilledTo = seq
	}
	if count == 0 {
		s.through = spilledTo
		return nil
	}
	payload := s.buf.Bytes()
	binary.LittleEndian.PutUint32(payload[mark:], uint32(count))

	var hdr [13]byte
	copy(hdr[:4], spillMagic[:])
	hdr[4] = spillVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, err := s.w.Write(hdr[:]); err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(payload); err != nil {
		s.err = err
		return err
	}
	s.through = spilledTo
	if r.mSpilled != nil {
		r.mSpilled.Add(int64(count))
	}
	return nil
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func encodeRecord(b *bytes.Buffer, rec *Record) {
	putU64(b, rec.Seq)
	b.WriteByte(byte(rec.Kind))
	putU64(b, uint64(rec.QueryID))
	if len(rec.Tenant) > maxTenantLen {
		rec.Tenant = rec.Tenant[:maxTenantLen]
	}
	var tl [2]byte
	binary.LittleEndian.PutUint16(tl[:], uint16(len(rec.Tenant)))
	b.Write(tl[:])
	b.WriteString(rec.Tenant)
	if len(rec.NodeID) > maxNodeIDLen {
		rec.NodeID = rec.NodeID[:maxNodeIDLen]
	}
	var nl [2]byte
	binary.LittleEndian.PutUint16(nl[:], uint16(len(rec.NodeID)))
	b.Write(nl[:])
	b.WriteString(rec.NodeID)
	putU32(b, uint32(rec.PolicyVersion))
	putU64(b, uint64(rec.UnixNanos))
	putU32(b, uint32(rec.Action))
	putU32(b, uint32(rec.ActionArg))
	putU32(b, uint32(rec.Heuristic))
	var flags byte
	if rec.Outcome.Joined {
		flags |= 1
	}
	if rec.Outcome.DeadlineMet {
		flags |= 2
	}
	if rec.Outcome.Shed {
		flags |= 4
	}
	if rec.Outcome.Rejected {
		flags |= 8
	}
	b.WriteByte(flags)
	putU64(b, math.Float64bits(rec.Outcome.LatencySecs))
	putU64(b, math.Float64bits(rec.Outcome.DurPredErr))
	putU64(b, math.Float64bits(rec.Outcome.MemPredErr))
	putU32(b, uint32(len(rec.Features)))
	for _, v := range rec.Features {
		putU64(b, math.Float64bits(v))
	}
	putU32(b, uint32(len(rec.Scores)))
	for _, v := range rec.Scores {
		putU64(b, math.Float64bits(v))
	}
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u8() (byte, error) {
	if d.off+1 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str(n int) (string, error) {
	if d.off+n > len(d.buf) {
		return "", io.ErrUnexpectedEOF
	}
	v := string(d.buf[d.off : d.off+n])
	d.off += n
	return v, nil
}

func (d *decoder) floats(n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	if d.off+8*n > len(d.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]float64, n)
	for i := range out {
		bits, err := d.u64()
		if err != nil {
			return nil, err
		}
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}

func decodeRecord(d *decoder, version byte) (Record, error) {
	var rec Record
	var err error
	if rec.Seq, err = d.u64(); err != nil {
		return rec, err
	}
	k, err := d.u8()
	if err != nil {
		return rec, err
	}
	if Kind(k) >= numKinds {
		return rec, fmt.Errorf("provenance: unknown kind %d", k)
	}
	rec.Kind = Kind(k)
	qid, err := d.u64()
	if err != nil {
		return rec, err
	}
	rec.QueryID = int64(qid)
	tl, err := d.u16()
	if err != nil {
		return rec, err
	}
	if tl > maxTenantLen {
		return rec, fmt.Errorf("provenance: tenant length %d exceeds limit", tl)
	}
	if rec.Tenant, err = d.str(int(tl)); err != nil {
		return rec, err
	}
	if version >= 2 {
		nl, err := d.u16()
		if err != nil {
			return rec, err
		}
		if nl > maxNodeIDLen {
			return rec, fmt.Errorf("provenance: node ID length %d exceeds limit", nl)
		}
		if rec.NodeID, err = d.str(int(nl)); err != nil {
			return rec, err
		}
	}
	pv, err := d.u32()
	if err != nil {
		return rec, err
	}
	rec.PolicyVersion = int32(pv)
	un, err := d.u64()
	if err != nil {
		return rec, err
	}
	rec.UnixNanos = int64(un)
	a, err := d.u32()
	if err != nil {
		return rec, err
	}
	rec.Action = int32(a)
	if a, err = d.u32(); err != nil {
		return rec, err
	}
	rec.ActionArg = int32(a)
	if a, err = d.u32(); err != nil {
		return rec, err
	}
	rec.Heuristic = int32(a)
	flags, err := d.u8()
	if err != nil {
		return rec, err
	}
	rec.Outcome.Joined = flags&1 != 0
	rec.Outcome.DeadlineMet = flags&2 != 0
	rec.Outcome.Shed = flags&4 != 0
	rec.Outcome.Rejected = flags&8 != 0
	bits, err := d.u64()
	if err != nil {
		return rec, err
	}
	rec.Outcome.LatencySecs = math.Float64frombits(bits)
	if bits, err = d.u64(); err != nil {
		return rec, err
	}
	rec.Outcome.DurPredErr = math.Float64frombits(bits)
	if bits, err = d.u64(); err != nil {
		return rec, err
	}
	rec.Outcome.MemPredErr = math.Float64frombits(bits)
	nf, err := d.u32()
	if err != nil {
		return rec, err
	}
	if nf > maxVecLen {
		return rec, fmt.Errorf("provenance: feature vector length %d exceeds limit", nf)
	}
	if rec.Features, err = d.floats(int(nf)); err != nil {
		return rec, err
	}
	ns, err := d.u32()
	if err != nil {
		return rec, err
	}
	if ns > maxVecLen {
		return rec, fmt.Errorf("provenance: score vector length %d exceeds limit", ns)
	}
	if rec.Scores, err = d.floats(int(ns)); err != nil {
		return rec, err
	}
	return rec, nil
}

// ReadAll decodes every record from a spill stream, validating each
// frame's magic, version, and CRC before decoding its payload. A
// truncated or corrupt frame fails the read — no partially-trusted
// frame leaks into the result.
func ReadAll(r io.Reader) ([]Record, error) {
	var out []Record
	var hdr [13]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("provenance: frame header: %w", err)
		}
		if [4]byte(hdr[:4]) != spillMagic {
			return nil, fmt.Errorf("provenance: bad frame magic %q", hdr[:4])
		}
		if hdr[4] != spillVersion && hdr[4] != spillVersionV1 {
			return nil, fmt.Errorf("provenance: unsupported spill version %d", hdr[4])
		}
		plen := binary.LittleEndian.Uint32(hdr[5:9])
		wantCRC := binary.LittleEndian.Uint32(hdr[9:13])
		if plen > maxFramePayload {
			return nil, fmt.Errorf("provenance: frame payload %d exceeds limit", plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("provenance: frame payload: %w", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			return nil, fmt.Errorf("provenance: frame CRC mismatch: got %08x want %08x", got, wantCRC)
		}
		d := &decoder{buf: payload}
		count, err := d.u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < count; i++ {
			rec, err := decodeRecord(d, hdr[4])
			if err != nil {
				return nil, fmt.Errorf("provenance: record %d: %w", i, err)
			}
			out = append(out, rec)
		}
		if d.off != len(payload) {
			return nil, fmt.Errorf("provenance: %d trailing bytes in frame", len(payload)-d.off)
		}
	}
}

// ReadFile loads a recorded trace file (see ReadAll).
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}
