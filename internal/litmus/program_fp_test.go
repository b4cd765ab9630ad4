package litmus

import "testing"

// TestProgramFingerprintGolden pins the program fingerprints of the
// catalog byte for byte. They are content addresses — fuzz deduplication
// and pmcd job fingerprints are built on them — so they must not move when
// the hashing helpers they share with the state key change.
func TestProgramFingerprintGolden(t *testing.T) {
	golden := map[string][2]string{ // name -> Fingerprint, ExploreFingerprint(memoized, 2M budget)
		"fig1-unsynchronized":  {"7998bba8bbc79b28e522985500f9b2da", "5c4f8dadf0770d9e9a9a3202146358c3"},
		"fig1-volatile-fences": {"15dee7a322c30c5448d0ed11b840a7da", "9b3632737d256bc788df508f6f2fbe84"},
		"fig5-annotated":       {"7ec6535038c0b29c29d4085e85a3e3ab", "322d83d983552705e542a07d7943bb1c"},
		"fig5-no-acquire":      {"74e97c15031efaadda31125a6b93e5d5", "f31246074b09acbf0492be8890fd2ae6"},
		"fig5-scoped-fence":    {"50973940d15ca01d24989c675390b223", "53b75a370cf079064217f53b93f8fb8d"},
		"sb-bare":              {"8a9b96a97da2f1a6cbe3f9b02eda5306", "434ecefe924be55f1915f4a3693ef29b"},
		"sb-drf":               {"1f1b8faaa31a942a15644cc1ebe2cc27", "90bf1278f6adfe64c0c7316b4163ce10"},
		"corr":                 {"a3e8132e5089b3a68d467a4bd5790e2c", "92a514a0c9b38dcb37f94d2ff9b2e033"},
		"corw":                 {"5eb3b7616c3101d46da9a0d9d131a372", "0ca10e376d24e1f1818c24f81a0572b4"},
		"cowr":                 {"2c7214360c67497cbf520c4715b3751e", "8c7d0ed6ee82fed37423dd287c1bb7e5"},
		"mutex-counter":        {"a6521d3eea3b68cae89102be4d3ea2ce", "c3cfa17abbb98de5ed1329eea5da76c8"},
		"lb":                   {"60f889dbd35ee0e233b8a709d9cf2a12", "d268b8736f1f00d94318919df3e3170f"},
		"iriw":                 {"dfd540f6630167be0e335eab72160593", "1f5afff3b6952118f5bad4de03fc134a"},
		"iriw-3t":              {"5a618d2970d963e1432110e29f2d2c58", "e2e8be7cb7486a20eec195698eb8d585"},
		"iriw-sym3":            {"f4e3777620f8a31b6e803794ec54fef9", "0f42f478926edadff08e5919082286f0"},
		"wrc-drf":              {"95bea34db752e94c024fb20cc9549a4e", "fd9c16a3d207b4fbf58a0280fe8ae7f9"},
		"stress-independent":   {"b2ae7d295e769b81e2f48a9cdcdf065f", "d559a3e3339705c175585f1ae995ee9f"},
		"mp-block":             {"dd6558afe8d8c8d8dd7af690e8d06b64", "32761c22456214adf50afc1d3289c6b6"},
	}
	for _, p := range Catalog() {
		want, ok := golden[p.Name]
		if !ok {
			t.Errorf("%s: no golden fingerprint", p.Name)
			continue
		}
		if got := Fingerprint(p); got != want[0] {
			t.Errorf("%s: Fingerprint = %s, golden %s", p.Name, got, want[0])
		}
		if got := ExploreFingerprint(p, true, 2_000_000); got != want[1] {
			t.Errorf("%s: ExploreFingerprint = %s, golden %s", p.Name, got, want[1])
		}
	}
}
