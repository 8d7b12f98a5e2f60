package core

import (
	"errors"
	"fmt"
	"testing"

	"libbat/internal/fabric"
)

// TestAgreementTraffic holds agreeOnError to carrying only failures: an
// agreement nobody fails sends no payload bytes in the allreduce's 2(P-1)
// messages, and a sparse vote names exactly the failed ranks, in order,
// with the first failed rank's message.
func TestAgreementTraffic(t *testing.T) {
	for _, p := range []int{16, 64, 512} {
		f := fabric.New(p)
		err := f.Run(func(c *fabric.Comm) error { return agreeOnError(c, "op", nil) })
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if got, want := f.MessagesSent(), int64(2*(p-1)); f.BytesSent() != 0 || got != want {
			t.Errorf("P=%d: unfailed agreement sent %d B in %d messages, want 0 B in %d",
				p, f.BytesSent(), got, want)
		}
	}

	own := map[int]error{5: errors.New("rank 5 failed"), 3: errors.New("rank 3 failed")}
	errs := make([]error, 8)
	err := fabric.Run(8, func(c *fabric.Comm) error {
		errs[c.Rank()] = agreeOnError(c, "op", own[c.Rank()])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range errs {
		msg := "rank 3 failed"
		if r == 5 {
			msg = "rank 5 failed" // a failed rank keeps its own error
		}
		want := fmt.Sprintf("core: op failed on rank(s) [3 5]: %s", msg)
		if got == nil || got.Error() != want {
			t.Errorf("rank %d: got %v, want %q", r, got, want)
		}
		if ownErr := own[r]; ownErr != nil && !errors.Is(got, ownErr) {
			t.Errorf("rank %d: %v does not wrap its own error", r, got)
		}
	}
}
