package access

import (
	"sync/atomic"
	"testing"

	"libbat/internal/geom"
)

// BenchmarkRecorderTreelet measures the per-treelet recording call that
// every query traversal makes, from all GOMAXPROCS goroutines at once over
// 2048 treelets of one leaf: the recorder's contention under parallel
// queries. Compare -cpu 1 with -cpu 2 (or more) for the lock's share.
func BenchmarkRecorderTreelet(b *testing.B) {
	const treelets = 2048
	r := New("bench", unitBox())
	centers := make([]geom.Vec3, treelets)
	for i := range centers {
		centers[i] = geom.V3(float64(i)/treelets, float64(i%64)/64, float64(i%8)/8)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 997
		for pb.Next() {
			ti := i % treelets
			r.Treelet(0, ti, 4096, false, centers[ti])
			i++
		}
	})
}
