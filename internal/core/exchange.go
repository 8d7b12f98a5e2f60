package core

import (
	"fmt"

	"libbat/internal/fabric"
	"libbat/internal/obs"
	"libbat/internal/particles"
)

// tagExchange is reserved for Exchange's payloads.
const tagExchange = 1 << 20

// Exchange performs an all-to-all particle migration: outgoing[r] is the
// set this rank sends to rank r (outgoing[self] is kept locally), and the
// result is everything destined for this rank. Simulations use it to
// rebalance particles onto their owning ranks before a collective Write,
// restoring the invariant that a rank's particles lie inside its declared
// bounds. All sets must share one schema; outgoing may contain nils for
// empty destinations.
func Exchange(c *fabric.Comm, schema particles.Schema, outgoing []*particles.Set) (*particles.Set, error) {
	if len(outgoing) != c.Size() {
		return nil, fmt.Errorf("core: Exchange needs one destination set per rank (%d != %d)",
			len(outgoing), c.Size())
	}
	col := c.Observer()
	sp := col.Start(c.Rank(), "exchange")
	defer sp.End()
	empty := particles.NewSet(schema, 0)
	for r, s := range outgoing {
		if r == c.Rank() {
			continue
		}
		if s == nil {
			s = empty
		}
		if !s.Schema.Equal(schema) {
			return nil, fmt.Errorf("core: Exchange destination %d has a different schema", r)
		}
		c.Send(r, tagExchange, s.Marshal())
	}
	// This rank's own set first, then each peer's payload in rank order: the
	// result is the same on every run, and as the fabric orders messages per
	// source, no fast peer's payload for the next Exchange is taken for this.
	mine := particles.NewSet(schema, 0)
	if own := outgoing[c.Rank()]; own != nil {
		mine.AppendSet(own)
	}
	var inBytes int64
	for r := range c.Size() {
		if r == c.Rank() {
			continue
		}
		raw, _ := c.Recv(r, tagExchange)
		inBytes += int64(len(raw))
		if err := mine.AppendMarshaled(raw); err != nil {
			return nil, fmt.Errorf("core: Exchange payload from rank %d: %w", r, err)
		}
	}
	if col != nil {
		r := obs.Rank(c.Rank())
		col.Add("core_exchange_recv_bytes_total", inBytes, r)
		col.Add("core_exchange_recv_particles_total", int64(mine.Len()), r)
	}
	return mine, nil
}
