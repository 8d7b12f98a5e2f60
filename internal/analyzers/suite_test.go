package analyzers_test

import (
	"testing"

	"libbat/internal/analyzers"
	"libbat/internal/analyzers/analysistest"
)

// Each analyzer runs over golden fixtures under testdata/src; the `// want`
// comments in the fixtures are the expected-diagnostic oracle. The positive
// fixture for uintcast reproduces the PR 2 offset-wrap panic shape; each
// suite also includes an out-of-scope or approved-idiom negative so scope
// and guard detection are pinned, and a //batlint:ignore waiver so the
// suppression path is exercised end to end.

func TestEndian(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Endian, "endian/bat", "endian/other")
}

func TestUintCast(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.UintCast, "uintcast/bat")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Determinism,
		"determinism/bat", "determinism/radix", "determinism/par", "determinism/other")
}

func TestFabricErr(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.FabricErr, "fabricerr/core")
}

func TestCtxSleep(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.CtxSleep, "ctxsleep/bat", "ctxsleep/fabric")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.CtxFlow, "ctxflow/core", "ctxflow/pfs")
}
