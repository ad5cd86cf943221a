package metric

// levenshteinStackRunes is the longest second argument, in runes, that
// Levenshtein handles in stack buffers; a longer one allocates. Words,
// names and short identifiers fit.
const levenshteinStackRunes = 64

// Levenshtein returns the edit distance between two strings: the minimum
// number of single-character insertions, deletions, and replacements needed
// to transform a into b. It is a true metric on strings. The paper uses it
// ("L-Edit") for the Last Names dataset.
//
// It runs the Wagner–Fischer recurrence over runes on a single DP row
// indexed by b's runes. While b has at most levenshteinStackRunes runes,
// that row and b's runes live on the stack, so the metric trees' millions
// of calls per join allocate nothing.
func Levenshtein(a, b string) float64 {
	var runeBuf [levenshteinStackRunes]rune
	var rowBuf [levenshteinStackRunes + 1]int
	rb := runeBuf[:0]
	for _, r := range b {
		rb = append(rb, r)
	}
	row := rowBuf[:0]
	for j := 0; j <= len(rb); j++ {
		row = append(row, j)
	}
	i := 0
	for _, ra := range a {
		i++
		// Going right, row[j+1] still holds the previous row's entry,
		// row[j] already holds this row's, and diag the previous row's
		// entry at j.
		diag := row[0]
		row[0] = i
		for j, r := range rb {
			sub := diag
			if ra != r {
				sub++
			}
			diag = row[j+1]
			row[j+1] = min(sub, diag+1, row[j]+1)
		}
	}
	return float64(row[len(rb)])
}
