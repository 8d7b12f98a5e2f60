package bat_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/oracle"
)

// TestSectionsNodeAddressable: every section of every build — the oracle's
// seeded cases, whose id column is integral, the images FuzzDecodeSections'
// seeds are cut from and the version-5 goldens — holds one block per node at
// the bit offset its node table predicts, which decodes alone to that node's
// slice of the whole column. Every section codec occurs, int-for among the
// oracle's builds.
func TestSectionsNodeAddressable(t *testing.T) {
	type image struct {
		name   string
		buf    []byte
		oracle bool
	}
	var images []image
	for seed := int64(0); seed < 20; seed++ {
		c := oracle.Generate(seed)
		b, err := bat.Build(c.All(), c.Domain(), c.Build)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image{fmt.Sprintf("oracle case %d", seed), b.Buf, true})
	}
	for i, buf := range bat.SectionSeedBuilds(t) {
		images = append(images, image{fmt.Sprintf("section seed build %d", i), buf, false})
	}
	for _, name := range []string{"golden_v5.bat", "golden_v5_lossless.bat", "golden_v5_signkeys.bat"} {
		buf, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image{name, buf, false})
	}
	total, oracleIntFOR := map[string]int{}, 0
	for _, im := range images {
		checked, err := bat.NodeAddressable(im.buf)
		if err != nil {
			t.Fatalf("%s: %v", im.name, err)
		}
		for codec, n := range checked {
			total[codec] += n
		}
		if im.oracle {
			oracleIntFOR += checked["int-for"]
		}
	}
	for _, codec := range []string{"raw", "quant-for", "int-for", "key-for", "sign-key-for", "sorted-cell-for"} {
		if total[codec] == 0 {
			t.Errorf("no %s section among the builds (%v)", codec, total)
		}
	}
	if oracleIntFOR == 0 {
		t.Errorf("no int-for section among the oracle's builds (%v)", total)
	}
	t.Logf("sections checked: %v", total)
}
