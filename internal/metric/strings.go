package metric

import "unicode/utf8"

// levenshteinStackRunes is the longest second argument, in runes, that
// the DP handles in stack buffers; a longer one allocates. Words, names
// and short identifiers fit.
const levenshteinStackRunes = 64

// patternBits is the longest string, in bytes, a LevenshteinPattern
// holds in one machine word: one bit per pattern symbol.
const patternBits = 64

// Levenshtein returns the edit distance between two strings: the minimum
// number of single-character insertions, deletions, and replacements needed
// to transform a into b. It is a true metric on strings. The paper uses it
// ("L-Edit") for the Last Names dataset.
//
// When both strings are ASCII and the shorter has at most 64 bytes, it
// prepares the shorter one as a LevenshteinPattern and runs the
// bit-parallel recurrence over the longer one: one word-wide step per
// character instead of a DP row. Otherwise it runs the Wagner–Fischer
// recurrence over runes on a single DP row, so a multibyte rune counts
// as one character and invalid UTF-8 as one U+FFFD per bad byte. Both
// paths return the same integer distance and allocate nothing while the
// second argument has at most 64 runes.
func Levenshtein(a, b string) float64 {
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	var pat LevenshteinPattern
	if pat.Reset(p); pat.bits {
		return pat.dist(t)
	}
	return levenshteinDP(a, b)
}

// levenshteinDP is the rune DP behind Levenshtein: one row indexed by b's
// runes, kept with b's runes in stack buffers while b has at most
// levenshteinStackRunes runes.
func levenshteinDP(a, b string) float64 {
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

// LevenshteinPattern is one string prepared for many Levenshtein
// evaluations against other strings, as the metric trees need when one
// element meets a whole leaf or a query meets a whole tree. Reset
// prepares a string; Dist(t) then equals Levenshtein(s, t) exactly.
//
// For an ASCII string of 1 to 64 bytes it holds the match table of
// Myers' bit-vector algorithm (JACM 46(3), 1999) in Hyyrö's
// edit-distance form (Nordic J. Computing 10(1), 2003): peq[c] has bit i
// set where s[i] == c. Dist then advances the DP column of all 64 rows
// with a few word operations per character of t. Any other string keeps
// no table, and Dist falls back to Levenshtein for every pair. The zero
// value holds the empty string. A pattern is not safe for concurrent use.
type LevenshteinPattern struct {
	peq  [128]uint64
	s    string
	bits bool // s is ASCII with 1..patternBits bytes and peq holds it
}

// Reset prepares s, replacing the previous string. It clears only the
// previous string's table entries, so it costs O(len(s)) rather than a
// clear of the whole 1 KB table.
func (p *LevenshteinPattern) Reset(s string) {
	if p.bits {
		for i := 0; i < len(p.s); i++ {
			p.peq[p.s[i]&(utf8.RuneSelf-1)] = 0
		}
	}
	p.s, p.bits = s, false
	if len(s) == 0 || len(s) > patternBits {
		return
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			for j := 0; j < i; j++ {
				p.peq[s[j]&(utf8.RuneSelf-1)] = 0
			}
			return
		}
		p.peq[c] |= 1 << (i & (patternBits - 1))
	}
	p.bits = true
}

// Dist returns Levenshtein(s, t) for the prepared string s.
func (p *LevenshteinPattern) Dist(t string) float64 {
	if !p.bits {
		return Levenshtein(p.s, t)
	}
	return p.dist(t)
}

// dist runs the bit-parallel recurrence over t for a prepared ASCII
// pattern. vp and vn hold the vertical +1 and −1 deltas of the current
// DP column; the score tracks its last row. A byte of t at or above
// 0x80 starts a multibyte rune (or is invalid UTF-8), which counts as
// one symbol, so that pair falls back to the rune DP.
func (p *LevenshteinPattern) dist(t string) float64 {
	m := len(p.s)
	last := uint64(1) << (m - 1)
	vp, vn := ^uint64(0), uint64(0)
	score := m
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= utf8.RuneSelf {
			// p.s has at most 64 runes, so the DP row over it stays on
			// the stack.
			return levenshteinDP(t, p.s)
		}
		x := p.peq[c]
		d0 := (((x & vp) + vp) ^ vp) | (x | vn)
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&last != 0 {
			score++
		} else if hn&last != 0 {
			score--
		}
		// Row 0 of the edit-distance DP grows by one per column, so a
		// +1 horizontal delta enters at the bottom bit. The shift leaves
		// that bit clear, so adding it is OR-ing it in; the add measured
		// about 10% faster per character.
		hp = hp<<1 + 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
	}
	return float64(score)
}
