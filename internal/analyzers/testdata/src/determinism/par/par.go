// Package par is in the determinism scope: it schedules the byte-identical
// BAT build, so a wall-clock read there could steer the schedule.
package par

import "time"

func deadline() time.Time {
	return time.Now().Add(time.Second) // want `time\.Now in the deterministic build pipeline`
}
