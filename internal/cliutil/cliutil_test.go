package cliutil

import "testing"

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"8MB":   8 << 20,
		"512KB": 512 << 10,
		"1.5GB": 3 << 29,
		"1234":  1234,
		"100B":  100,
		" 2mb ": 2 << 20,
		"0":     0,
		"0.5MB": 1 << 19,
		"2.0KB": 2 << 10,
		"1.0GB": 1 << 30,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
	// NaN, infinities and sizes past MaxInt64 used to come back as
	// math.MinInt64 with a nil error.
	for _, bad := range []string{"", "abc", "12XB", "-5MB",
		"nan", "NaNMB", "inf", "+InfGB", "1e19", "9e9GB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should error", bad)
		}
	}
}

func TestParseFilter(t *testing.T) {
	got, err := ParseFilter(" 2, -1.5 ,1e3")
	if err != nil || got.Attr != 2 || got.Min != -1.5 || got.Max != 1e3 {
		t.Errorf("ParseFilter = %+v, %v", got, err)
	}
	for _, bad := range []string{"", "1", "0,1", "0,1,2,3", "0.7,0,1", "x,0,1",
		"0,nan,1", "0,0,Inf", "0,-inf,0", "0,a,1"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) should error", bad)
		}
	}
}
