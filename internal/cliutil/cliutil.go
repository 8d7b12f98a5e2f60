// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"libbat/internal/bat"
)

// ParseSize parses a human byte size such as "8MB", "512KB", "1.5GB", or a
// plain byte count. NaN, infinities and sizes past math.MaxInt64 are
// rejected.
func ParseSize(s string) (int64, error) {
	mul := int64(1)
	up := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(up, "GB"):
		mul, up = 1<<30, strings.TrimSuffix(up, "GB")
	case strings.HasSuffix(up, "MB"):
		mul, up = 1<<20, strings.TrimSuffix(up, "MB")
	case strings.HasSuffix(up, "KB"):
		mul, up = 1<<10, strings.TrimSuffix(up, "KB")
	case strings.HasSuffix(up, "B"):
		up = strings.TrimSuffix(up, "B")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(up), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	// float64(math.MaxInt64) is 2^63, the first value int64 cannot hold.
	b := v * float64(mul)
	if b >= math.MaxInt64 {
		return 0, fmt.Errorf("size %q overflows int64", s)
	}
	return int64(b), nil
}

// ParseFilter parses an attribute filter "attr,min,max": an integer
// attribute index and two finite bounds. Whether the index names an
// attribute is for the caller to check against the dataset's schema.
func ParseFilter(s string) (bat.AttrFilter, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return bat.AttrFilter{}, fmt.Errorf("want attr,min,max")
	}
	attr, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return bat.AttrFilter{}, fmt.Errorf("attribute index: %v", err)
	}
	var bounds [2]float64
	for i, p := range parts[1:] {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return bat.AttrFilter{}, fmt.Errorf("%q is not a finite number", p)
		}
		bounds[i] = v
	}
	return bat.AttrFilter{Attr: attr, Min: bounds[0], Max: bounds[1]}, nil
}

// ParseBounds parses a comma-separated list of non-negative error bounds
// ("1e-3" or "1e-3,0,2.5e-2") for the -error-bound style flags.
func ParseBounds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid error bound %q", p)
		}
		if v < 0 || v != v || v > 1e308 {
			return nil, fmt.Errorf("error bound %q must be finite and >= 0", p)
		}
		out[i] = v
	}
	return out, nil
}
