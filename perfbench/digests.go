package main

// digestKey selects recorded digests: experiment seed and per-app snippet
// cap (0 = paper scale; the smoke tests use small caps).
type digestKey struct {
	seed        int64
	maxSnippets int
}

// recordedRepro holds the first 16 hex digits of the SHA-256 of each
// artifact's %v rendering, recorded on amd64. Fig2 at paper scale and
// Table2, Fig3 and Fig4 at the 6-snippet cap agree with the golden digests
// in internal/experiments/parallel_test.go. Fig5 and the paper-scale
// Table2, Fig3 and Fig4 digests have no golden value elsewhere: they were
// recorded from this benchmark's own runs and anchor it against regressions.
var recordedRepro = map[digestKey]map[string]string{
	{42, 6}: {"Fig2": "644690ce3b2807af", "Fig3": "36d2953c195da1db", "Fig4": "2bb87a3928be1795", "Fig5": "2f0413b7bb8d922b", "Table2": "8bccffc0f9c1ac63"},
	{42, 0}: {"Fig2": "644690ce3b2807af", "Fig3": "cdcd8b8980e3f08a", "Fig4": "bc30a3d22ef778c2", "Fig5": "2f0413b7bb8d922b", "Table2": "a05a4dc4ffd5589b"},
}
