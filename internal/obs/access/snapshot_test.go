package access

import (
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"libbat/internal/checksum"
	"libbat/internal/geom"
)

// goldenSnapshot is a fully populated snapshot with deterministic fields
// (WallUnix 0, fixed timestamps). Changing the sidecar format or the JSON
// field set/order will break TestSidecarGolden — bump SidecarVersion and
// regenerate the golden when that is intentional.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Dataset:      "golden-ds",
		Bounds:       [6]float64{0, 0, 0, 2, 1, 1},
		GridBits:     4,
		Queries:      3,
		TreeletHits:  4,
		TreeletBytes: 4096,
		TreeletLoads: 2,
		Treelets: []TreeletStat{
			{Leaf: 0, Treelet: 1, Hits: 3, Bytes: 3072, Loads: 1},
			{Leaf: 1, Treelet: 0, Hits: 1, Bytes: 1024, Loads: 1},
		},
		Heatmap: []HeatCell{{Cell: 0, Count: 3}, {Cell: 3584, Count: 1}},
		Attrs:   []AttrStat{{Name: "mass", Count: 2}},
		Recent: []QueryRecord{
			{UnixNano: 1700000000000000001, Source: "test", Box: &[6]float64{0, 0, 0, 1, 1, 1},
				Filters: []FilterRange{{Attr: "mass", Min: 0, Max: 10}}, Quality: 1,
				Workers: 4, Treelets: 2, Particles: 100, Seconds: 0.25, CacheHitRatio: 0.5},
		},
	}
}

// goldenSidecar is the exact sidecar image of goldenSnapshot() under
// format version 1: "BATA", version, payload length, JSON payload, CRC32C.
const goldenSidecar = "BATA\x01\x00\x00\x00\x50\x02\x00\x00" +
	`{"dataset":"golden-ds","bounds":[0,0,0,2,1,1],"grid_bits":4,` +
	`"queries_total":3,"treelet_hits_total":4,"treelet_bytes_total":4096,` +
	`"treelet_loads_total":2,"treelets":[{"leaf":0,"treelet":1,"hits":3,` +
	`"bytes":3072,"loads":1},{"leaf":1,"treelet":0,"hits":1,"bytes":1024,` +
	`"loads":1}],"heatmap":[{"cell":0,"count":3},{"cell":3584,"count":1}],` +
	`"attrs":[{"name":"mass","count":2}],"recent_queries":[{"unix_nano":` +
	`1700000000000000001,"source":"test","box":[0,0,0,1,1,1],"filters":` +
	`[{"attr":"mass","min":0,"max":10}],"quality":1,"workers":4,` +
	`"treelets":2,"particles":100,"seconds":0.25,"cache_hit_ratio":0.5}]}` +
	"\x5f\x3f\xab\x89"

func TestSidecarGolden(t *testing.T) {
	buf, err := goldenSnapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != goldenSidecar {
		t.Fatalf("sidecar image changed:\n got %q\nwant %q", buf, goldenSidecar)
	}
	// And it round-trips through the CRC-verifying loader.
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenSnapshot()) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSidecarCorruption(t *testing.T) {
	buf, err := goldenSnapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Any single flipped payload byte must fail the CRC.
	for _, off := range []int{12, len(buf) / 2, len(buf) - 5} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0x40
		if _, err := Unmarshal(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: err = %v, want ErrChecksum", off, err)
		}
	}
	// Truncation, bad magic, and a future version fail with plain errors.
	if _, err := Unmarshal(buf[:10]); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("truncated: err = %v", err)
	}
	bad := append([]byte(nil), buf...)
	copy(bad, "NOPE")
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	bad = append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(bad[4:], SidecarVersion+1)
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v", err)
	}
	// A length field inconsistent with the file size is rejected before
	// the payload is parsed.
	bad = append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(bad[8:], 7)
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "length") {
		t.Errorf("bad length: err = %v", err)
	}
}

// TestSidecarRoundTripMerge is the write -> CRC-verify -> load -> merge
// path a batcompact run would take over telemetry from two replicas.
func TestSidecarRoundTripMerge(t *testing.T) {
	bounds := geom.NewBox(geom.V3(0, 0, 0), geom.V3(2, 1, 1))
	replica := func(tag string, leaf int) Snapshot {
		r := New("ds", bounds, Options{RingSize: 4})
		r.Treelet(leaf, 0, 100, geom.V3(0.25, 0.5, 0.5))
		r.Treelet(0, 1, 200, geom.V3(1.75, 0.5, 0.5))
		r.TreeletLoad(leaf, 0)
		r.TouchAttr("mass", 1)
		r.Record(QueryRecord{UnixNano: int64(leaf + 1), Source: tag, Particles: 5})
		s := r.Snapshot()
		s.WallUnix = 0
		return s
	}
	a, b := replica("ra", 0), replica("rb", 1)

	// Persist replica A and load it back through the checksum.
	buf, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, a) {
		t.Fatalf("loaded = %+v\nwant %+v", loaded, a)
	}

	// Merge replica B into it and check the combined counters.
	if err := loaded.Merge(b); err != nil {
		t.Fatal(err)
	}
	if loaded.Queries != 2 || loaded.TreeletHits != 4 || loaded.TreeletBytes != 600 {
		t.Fatalf("merged totals = %+v", loaded)
	}
	wantTreelets := []TreeletStat{
		{Leaf: 0, Treelet: 0, Hits: 1, Bytes: 100, Loads: 1},
		{Leaf: 0, Treelet: 1, Hits: 2, Bytes: 400},
		{Leaf: 1, Treelet: 0, Hits: 1, Bytes: 100, Loads: 1},
	}
	if !reflect.DeepEqual(loaded.Treelets, wantTreelets) {
		t.Fatalf("merged treelets = %+v", loaded.Treelets)
	}
	var heat int64
	for _, h := range loaded.Heatmap {
		heat += h.Count
	}
	if heat != 4 {
		t.Fatalf("merged heatmap mass = %d", heat)
	}
	if len(loaded.Attrs) != 1 || loaded.Attrs[0].Count != 2 {
		t.Fatalf("merged attrs = %+v", loaded.Attrs)
	}
	if len(loaded.Recent) != 2 || loaded.Recent[0].Source != "ra" || loaded.Recent[1].Source != "rb" {
		t.Fatalf("merged recent = %+v", loaded.Recent)
	}
	// Mismatched grids must refuse to merge.
	other := Snapshot{GridBits: loaded.GridBits + 1}
	if err := loaded.Merge(other); err == nil {
		t.Fatal("merged mismatched grids")
	}

	// And the merged snapshot also seeds a live recorder (restart path).
	r2 := New("ds", bounds, Options{})
	if err := r2.MergeSnapshot(loaded); err != nil {
		t.Fatal(err)
	}
	s2 := r2.Snapshot()
	if s2.Queries != 2 || s2.TreeletHits != 4 || !reflect.DeepEqual(s2.Treelets, wantTreelets) {
		t.Fatalf("recorder-merged = %+v", s2)
	}
	if err := r2.MergeSnapshot(other); err == nil {
		t.Fatal("recorder merged mismatched grids")
	}
}

func TestSnapshotPrometheus(t *testing.T) {
	var sb strings.Builder
	if err := goldenSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`access_queries_total{dataset="golden-ds"} 3`,
		`access_treelet_hits_total{dataset="golden-ds"} 4`,
		`access_treelet_hits{dataset="golden-ds",leaf="0",treelet="1"} 3`,
		`access_heatmap_count{dataset="golden-ds",cell="3584"} 1`,
		`access_attr_touches_total{attr="mass",dataset="golden-ds"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// FuzzUnmarshal throws arbitrary bytes at the sidecar loader, both as a
// whole image and sealed as the payload of a well-formed envelope (so
// mutations reach the payload parser behind the CRC): it must return an
// error or a snapshot that is safe to traverse, merge and re-marshal,
// never panic.
func FuzzUnmarshal(f *testing.F) {
	valid, err := goldenSnapshot().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[len(valid)/2:])
	f.Add(flipped)
	f.Add(valid[12 : len(valid)-4]) // the bare payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := append([]byte(sidecarMagic), 1, 0, 0, 0)
		sealed = binary.LittleEndian.AppendUint32(sealed, uint32(len(data)))
		sealed = append(sealed, data...)
		sealed = binary.LittleEndian.AppendUint32(sealed, checksum.CRC32C(sealed))
		for _, image := range [][]byte{data, sealed} {
			s, err := Unmarshal(image)
			if err != nil {
				continue
			}
			for _, h := range s.HotCells(4) {
				s.CellBox(h.Cell)
			}
			s.HotTreelets(4)
			if err := s.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
			merged := s
			if err := merged.Merge(s); err != nil {
				t.Fatal(err)
			}
			if _, err := merged.Marshal(); err != nil {
				t.Fatalf("decoded snapshot does not re-marshal: %v", err)
			}
		}
	})
}
