// Package convert imports external particle data into BAT datasets — the
// "lengthy postprocess conversion step" the paper's layout makes
// unnecessary for its own writes (§I), provided here so existing flat
// dumps can adopt the layout. A CSV dump is loaded, spatially partitioned
// onto virtual ranks, and pushed through the same collective two-phase
// pipeline a simulation would use.
package convert

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"libbat/internal/core"
	"libbat/internal/geom"
	"libbat/internal/particles"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// ReadCSV parses particle data from r. The first row is a header and must
// begin with the columns x, y, z (case-insensitive); every further column
// becomes a float64 attribute. Blank lines are skipped.
func ReadCSV(r io.Reader) (*particles.Set, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("convert: reading header: %w", err)
	}
	if len(header) < 3 {
		return nil, fmt.Errorf("convert: need at least x,y,z columns, got %d", len(header))
	}
	for i, want := range []string{"x", "y", "z"} {
		if strings.ToLower(strings.TrimSpace(header[i])) != want {
			return nil, fmt.Errorf("convert: column %d is %q, want %q", i, header[i], want)
		}
	}
	names := make([]string, 0, len(header)-3)
	for _, h := range header[3:] {
		names = append(names, strings.TrimSpace(h))
	}
	set := particles.NewSet(particles.NewSchema(names...), 0)
	attrs := make([]float64, len(names))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("convert: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("convert: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		var p geom.Vec3
		vals := [3]*float64{&p.X, &p.Y, &p.Z}
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[i]), 64)
			if err != nil {
				return nil, fmt.Errorf("convert: line %d column %d: %w", line, i, err)
			}
			*vals[i] = v
		}
		for i := range attrs {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[3+i]), 64)
			if err != nil {
				return nil, fmt.Errorf("convert: line %d column %d: %w", line, 3+i, err)
			}
			attrs[i] = v
		}
		set.Append(p, attrs)
	}
	return set, nil
}

// WriteCSV writes a particle set in the format ReadCSV accepts.
func WriteCSV(w io.Writer, set *particles.Set) error {
	cw := csv.NewWriter(w)
	header := []string{"x", "y", "z"}
	for _, a := range set.Schema.Attrs {
		header = append(header, a.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < set.Len(); i++ {
		p := set.Position(i)
		rec[0] = strconv.FormatFloat(p.X, 'g', -1, 32)
		rec[1] = strconv.FormatFloat(p.Y, 'g', -1, 32)
		rec[2] = strconv.FormatFloat(p.Z, 'g', -1, 32)
		for a := range set.Attrs {
			rec[3+a] = strconv.FormatFloat(set.Attrs[a][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Options controls a conversion.
type Options struct {
	// VirtualRanks is the number of simulated ranks the data is
	// partitioned onto before the collective write; 0 picks one rank per
	// ~256k particles (minimum 4).
	VirtualRanks int
	// Write is the pipeline configuration (target size, strategy, BAT
	// options).
	Write core.WriteConfig
}

// ToDataset partitions the particles spatially onto virtual ranks and
// writes them through the two-phase pipeline as dataset `base` in store.
func ToDataset(set *particles.Set, store pfs.Storage, base string, opts Options) (*core.WriteStats, error) {
	n := set.Len()
	vranks := opts.VirtualRanks
	if vranks <= 0 {
		vranks = n / 262144
		if vranks < 4 {
			vranks = 4
		}
	}
	bounds := set.Bounds()
	if n == 0 {
		bounds = geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	}
	// Grow the upper corner epsilon so boundary particles bin inside.
	sz := bounds.Size()
	eps := 1e-6 * (sz.X + sz.Y + sz.Z + 1)
	bounds.Upper = bounds.Upper.Add(geom.V3(eps, eps, eps))
	nx, ny, nz := workloads.Factor3D(vranks)
	decomp, err := workloads.NewDecomp(bounds, nx, ny, nz)
	if err != nil {
		return nil, err
	}

	// Partition by position.
	parts := make([]*particles.Set, vranks)
	for r := range parts {
		parts[r] = particles.NewSet(set.Schema, 0)
	}
	attrs := make([]float64, set.Schema.NumAttrs())
	for i := 0; i < n; i++ {
		p := set.Position(i)
		norm := bounds.Normalize(p)
		ix := clampInt(int(norm.X*float64(nx)), nx-1)
		iy := clampInt(int(norm.Y*float64(ny)), ny-1)
		iz := clampInt(int(norm.Z*float64(nz)), nz-1)
		r := (iz*ny+iy)*nx + ix
		for a := range attrs {
			attrs[a] = set.Attrs[a][i]
		}
		parts[r].Append(p, attrs)
	}

	return core.WriteWorld(vranks, store, base, opts.Write, nil, func(rank int) (*particles.Set, geom.Box) {
		return parts[rank], decomp.RankBounds(rank)
	})
}

func clampInt(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}
