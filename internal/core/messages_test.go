package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"libbat/internal/bat"
	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/particles"
)

// Message kinds as FuzzDecodeMessages' first byte picks them.
const (
	kindInfo = iota
	kindAssign
	kindRecord
	kindQuery
	numKinds
)

// reencode decodes raw as the message kind picks and encodes the result
// again.
func reencode(kind byte, raw []byte) ([]byte, error) {
	switch kind % numKinds {
	case kindInfo:
		n, b, err := decodeInfo(raw)
		if err != nil {
			return nil, err
		}
		return encodeInfo(n, b), nil
	case kindAssign:
		a, err := decodeAssign(raw)
		if err != nil {
			return nil, err
		}
		return encodeAssign(a), nil
	case kindRecord:
		pt, reports, err := decodeRecord(raw)
		if err != nil {
			return nil, err
		}
		return encodeRecord(pt, reports), nil
	default:
		leaf, q, err := decodeQuery(raw)
		if err != nil {
			return nil, err
		}
		return encodeQuery(leaf, q), nil
	}
}

var testBox = geom.NewBox(geom.V3(0, -1, 2), geom.V3(1, 0, 3.5))

// testAssign is an aggregator's assignment of one leaf of members members.
func testAssign(members int) assignMsg {
	la := leafAssign{Leaf: 3, Bounds: testBox}
	for r := range members {
		la.Senders = append(la.Senders, r)
		la.Counts = append(la.Counts, int64(100+r))
	}
	return assignMsg{Aggregator: 2, Leaves: []leafAssign{la}}
}

// testReport is a 4-attribute leaf report, error-marked when errText is set.
func testReport(name, errText string) reportMsg {
	return reportMsg{LeafReport: meta.LeafReport{
		Leaf: 5, FileName: name, Count: 1234, Bounds: testBox,
		LocalRanges: []bitmap.Range{{Min: 0, Max: 1}, {Min: -2, Max: 2}, {Min: 3, Max: 3}, {Min: 0, Max: 9}},
		RootBitmaps: []bitmap.Bitmap{1, 0xffff, 0x80000000, 7},
	}, Err: errText}
}

var testPhases = PhaseTimes{1, 2 * time.Millisecond, 3, 4, 5, time.Second}

// namedMsg is an encoded message behind its kind byte.
type namedMsg struct {
	name string
	raw  []byte
}

// testMessages are one encoded message of each kind and more: a
// non-aggregator's assignment, an aggregator's record with and without a
// failed leaf, an empty-bounds query and one with filters.
func testMessages() []namedMsg {
	box := testBox
	return []namedMsg{
		{"info", append([]byte{kindInfo}, encodeInfo(800, box)...)},
		{"assign non-aggregator", append([]byte{kindAssign}, encodeAssign(assignMsg{Aggregator: 7})...)},
		{"assign leaf", append([]byte{kindAssign}, encodeAssign(testAssign(16))...)},
		{"record timings only", append([]byte{kindRecord}, encodeRecord(testPhases, nil)...)},
		{"record with failure", append([]byte{kindRecord}, encodeRecord(testPhases, []reportMsg{
			testReport("w-0000.l00005.bat", ""), testReport("", "core: leaf 6 bat build: boom")})...)},
		{"query empty bounds", append([]byte{kindQuery}, encodeQuery(4, bat.Query{Quality: 1})...)},
		{"query filtered", append([]byte{kindQuery}, encodeQuery(9, bat.Query{Bounds: &box,
			Filters: []bat.AttrFilter{{Attr: 1, Min: -1, Max: 1}}, PrevQuality: 0.25, Quality: 0.5})...)},
	}
}

// TestMessageLayouts pins each message's size to its layout (DESIGN.md
// §10) and its round trip.
func TestMessageLayouts(t *testing.T) {
	box := testBox
	for _, tc := range []struct {
		name string
		raw  []byte
		want int
	}{
		{"info", encodeInfo(800, box), 8 + 48},
		{"assignment aggregating nothing", encodeAssign(assignMsg{Aggregator: 7}), 4 + 4},
		{"assignment of a 16-member leaf", encodeAssign(testAssign(16)), 8 + 4 + 48 + 4 + 16*(4+8)},
		{"record without reports", encodeRecord(testPhases, nil), 48},
		{"record of one 4-attribute report", encodeRecord(testPhases, []reportMsg{testReport("w-0000.l00005.bat", "")}),
			48 + 4 + 4 + 17 + 8 + 48 + 4 + 4*(16+4) + 4},
		{"bounds-only query", encodeQuery(0, bat.Query{Bounds: &box, Quality: 1}), 4 + 1 + 48 + 4 + 16},
	} {
		if len(tc.raw) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(tc.raw), tc.want)
		}
	}
	for _, m := range testMessages() {
		again, err := reencode(m.raw[0], m.raw[1:])
		if err != nil || !bytes.Equal(again, m.raw[1:]) {
			t.Errorf("%s: round trip = %x, %v; want %x", m.name, again, err, m.raw[1:])
		}
	}
	pt, reports, err := decodeRecord(encodeRecord(testPhases, []reportMsg{testReport("a.bat", "boom")}))
	if err != nil || pt != testPhases || len(reports) != 1 || reports[0].Err != "boom" ||
		reports[0].FileName != "a.bat" || reports[0].RootBitmaps[2] != 0x80000000 {
		t.Errorf("record decoded to %+v, %+v, %v", pt, reports, err)
	}
}

// TestMessageLongFileName: a report's file name past binfmt's u16 string
// limit crosses the wire whole, so meta.Build refuses it by name.
func TestMessageLongFileName(t *testing.T) {
	name := strings.Repeat("n", 1<<16+3)
	_, reports, err := decodeRecord(encodeRecord(testPhases, []reportMsg{testReport(name, "")}))
	if err != nil || len(reports) != 1 || reports[0].FileName != name {
		t.Fatalf("long file name: %d reports, err %v", len(reports), err)
	}
	if _, err := meta.Build(particles.UniformSchema(4), 6, []meta.LeafReport{reports[0].LeafReport}); err == nil ||
		!strings.Contains(err.Error(), "file name of 65539 bytes") {
		t.Errorf("meta.Build = %v, want the file-name length refusal", err)
	}
}

// TestMessageRefusals: truncated messages, trailing bytes, a count the
// message cannot hold, a bad presence byte and a count past int64 are
// errors.
func TestMessageRefusals(t *testing.T) {
	for _, m := range testMessages() {
		msg := m.raw
		if _, err := reencode(msg[0], msg[1:len(msg)-1]); err == nil {
			t.Errorf("%s cut by one byte: accepted", m.name)
		}
		if _, err := reencode(msg[0], append(msg[1:len(msg):len(msg)], 0)); err == nil {
			t.Errorf("%s with a trailing byte: accepted", m.name)
		}
	}
	huge := encodeAssign(assignMsg{Aggregator: 1})
	huge[4], huge[7] = 0xff, 0xff // a leaf count of ~4e9 with no byte left
	query := encodeQuery(1, bat.Query{})
	query[4] = 2
	for _, tc := range []struct {
		name string
		kind byte
		raw  []byte
	}{
		{"leaf count past the message", kindAssign, huge},
		{"bounds presence byte 2", kindQuery, query},
		{"negative particle count", kindInfo, encodeInfo(-1, testBox)},
	} {
		if _, err := reencode(tc.kind, tc.raw); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzDecodeMessages feeds the four control-message decoders peer bytes:
// the first byte picks the message. None may panic, and an accepted message
// must re-encode to exactly its bytes. An accepted assignment that passes
// checkAssign in a world of fuzzWorld ranks must name only ranks of that
// world, each member once per leaf.
func FuzzDecodeMessages(f *testing.F) {
	for _, m := range testMessages() {
		f.Add(m.raw)
	}
	f.Add(append([]byte{kindAssign}, encodeAssign(assignMsg{Aggregator: 99})...))
	const fuzzWorld = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		again, err := reencode(data[0], data[1:])
		if err == nil && !bytes.Equal(again, data[1:]) {
			t.Fatalf("message kind %d re-encoded to %x, was %x", data[0]%numKinds, again, data[1:])
		}
		if err != nil || data[0]%numKinds != kindAssign {
			return
		}
		a, _ := decodeAssign(data[1:])
		if checkAssign(a, fuzzWorld, 0) != nil {
			return
		}
		if a.Aggregator < -1 || a.Aggregator >= fuzzWorld {
			t.Fatalf("checked assignment names aggregator %d in a world of %d", a.Aggregator, fuzzWorld)
		}
		for _, la := range a.Leaves {
			members := slices.Clone(la.Senders)
			slices.Sort(members)
			if len(members) > 0 && (members[0] < 0 || members[len(members)-1] >= fuzzWorld) {
				t.Fatalf("checked assignment's leaf %d names members %v in a world of %d", la.Leaf, members, fuzzWorld)
			}
			if len(slices.Compact(members)) != len(la.Senders) {
				t.Fatalf("checked assignment's leaf %d repeats a member: %v", la.Leaf, la.Senders)
			}
		}
	})
}
