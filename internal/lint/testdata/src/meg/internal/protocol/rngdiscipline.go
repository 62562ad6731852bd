// Package protocol is an rngdiscipline fixture posing as the
// determinism-critical protocol package. It imports the real
// meg/internal/rng so callee resolution runs against the true package
// path.
package protocol

import (
	"crypto/rand"     // want "import of crypto/rand"
	mrand "math/rand" // want "import of math/rand"

	"meg/internal/rng"
)

// Decide draws one per-(node, round) decision the disciplined way and
// several undisciplined ways.
func Decide(base uint64, u, t uint64) bool {
	lr := rng.At(base, u, t) // derived from the trial seed: allowed
	ok := lr.Bool()

	bad := rng.At(1, 2, 3) // want "only compile-time constants"
	ok = ok || bad.Bool()

	streams := rng.StreamsOf(base) // derived from the trial seed: allowed
	sr := streams.At(u, t)
	fixedStreams := rng.StreamsOf(7) // want "only compile-time constants"
	fr := fixedStreams.At(u, t)
	ok = ok || sr.Bool() || fr.Bool()

	r := rng.New(42) // want "only compile-time constants"
	r.Seed(7)        // want "only compile-time constants"
	r.Seed(base)     // runtime seed: allowed

	const tagDecide = 0xbeef
	mixed := rng.Mix(base, tagDecide, t) // constant tag component with runtime base: allowed
	fixed := rng.Mix(1, 2)               // want "only compile-time constants"

	buf := make([]byte, 8)
	_, _ = rand.Read(buf) // the import line carries the finding, not the call

	return ok && mixed != fixed && mrand.Int() >= 0
}
