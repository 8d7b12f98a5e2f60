package bat

// The external route tests draw from the same seeded sets as the package's
// own tests.
var (
	RandomSet    = randomSet
	ClusteredSet = clusteredSet
)
