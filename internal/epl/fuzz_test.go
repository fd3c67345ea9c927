package epl

import "testing"

// FuzzParse holds the parser and the renderer to each other: Parse never
// panics, and an accepted query renders to a string that parses again and
// renders the same. Seeded with Listing 1, the round-trip queries and the
// rejected ones.
func FuzzParse(f *testing.F) {
	f.Add(listing1)
	for _, src := range roundTripQueries {
		f.Add(src)
	}
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q (rendered from %q): %v", rendered, src, err)
		}
		if again := q2.String(); again != rendered {
			t.Fatalf("rendering not stable for %q:\n1: %s\n2: %s", src, rendered, again)
		}
	})
}
