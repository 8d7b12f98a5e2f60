package bat

// The external route tests draw from the same seeded sets as the package's
// own tests.
var (
	RandomSet    = randomSet
	ClusteredSet = clusteredSet
)

// The node-addressability test checks the oracle's builds, which a test inside
// the package cannot make: the oracle imports it.
var (
	NodeAddressable   = nodeAddressable
	SectionSeedBuilds = sectionSeedBuilds
)

// The shallow-tree derivation is checked over the oracle's builds too.
var CheckShallowTree = checkShallowTree
