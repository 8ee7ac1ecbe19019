// Package aut reads and writes labeled transition systems in the Aldebaran
// (.aut) textual format used by the CADP toolbox:
//
//	des (<initial-state>, <number-of-transitions>, <number-of-states>)
//	(<from-state>, <label>, <to-state>)
//	...
//
// Labels containing anything other than letters, digits and underscores are
// double-quoted; embedded quotes and backslashes are escaped. The internal
// action is written either i (unquoted) or "i".
package aut

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"multival/internal/lts"
)

// Write serializes l in Aldebaran format. Transitions are emitted in a
// canonical order — by source state, then label string, then destination —
// so the output is deterministic regardless of the insertion order of the
// transitions (two behaviourally identical builds produce byte-identical
// files, which keeps diffs and golden tests stable).
func Write(w io.Writer, l *lts.LTS) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "des (%d, %d, %d)\n",
		l.Initial(), l.NumTransitions(), l.NumStates()); err != nil {
		return err
	}
	// Rank labels by name once so the sort comparator is integer-only.
	names := l.Labels()
	byName := make([]int, len(names))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(i, j int) bool { return names[byName[i]] < names[byName[j]] })
	rank := make([]int, len(names))
	for r, id := range byName {
		rank[id] = r
	}
	order := make([]lts.Transition, 0, l.NumTransitions())
	l.EachTransition(func(t lts.Transition) { order = append(order, t) })
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if rank[a.Label] != rank[b.Label] {
			return rank[a.Label] < rank[b.Label]
		}
		return a.Dst < b.Dst
	})
	for _, t := range order {
		if _, err := fmt.Fprintf(bw, "(%d, %s, %d)\n", t.Src, QuoteLabel(l.LabelName(t.Label)), t.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteString renders l in Aldebaran format as a string.
func WriteString(l *lts.LTS) string {
	var b strings.Builder
	_ = Write(&b, l) // strings.Builder cannot fail
	return b.String()
}

// QuoteLabel renders a label for .aut output, quoting when necessary.
func QuoteLabel(label string) string {
	if isPlain(label) {
		return label
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
	return b.String()
}

func isPlain(label string) bool {
	if label == "" {
		return false
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
		default:
			return false
		}
	}
	return true
}

// ParseError describes a syntax error in a .aut stream.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("aut: line %d: %s", e.Line, e.Msg)
}

// maxStates bounds the state count a header may declare. Declaring
// states costs Read nothing, but every later pass (the adjacency index,
// minimization, solvers) allocates per state, so without a bound a
// 20-byte header could demand tens of gigabytes downstream. It is four
// times the default bound of the state-space generators (1<<20).
const maxStates = 1 << 22

// Read parses an Aldebaran-format LTS. The number of states and transitions
// declared in the header must match the body, and the header may declare
// at most 1<<22 states.
func Read(r io.Reader) (*lts.LTS, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0

	// Header.
	var init, ntrans, nstates int
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var err error
		init, ntrans, nstates, err = parseHeader(line)
		if err != nil {
			return nil, &ParseError{lineNo, err.Error()}
		}
		break
	}
	if nstates == 0 && ntrans == 0 && init == 0 && lineNo == 0 {
		return nil, &ParseError{0, "empty input"}
	}
	if nstates <= 0 || nstates > maxStates {
		return nil, &ParseError{lineNo, fmt.Sprintf("invalid state count %d (want 1 to %d)", nstates, maxStates)}
	}
	if init < 0 || init >= nstates {
		return nil, &ParseError{lineNo, fmt.Sprintf("initial state %d out of range [0,%d)", init, nstates)}
	}

	l := lts.New("aut")
	l.AddStates(nstates)
	l.SetInitial(lts.State(init))

	seen := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		src, label, dst, err := parseTransition(line)
		if err != nil {
			return nil, &ParseError{lineNo, err.Error()}
		}
		if src < 0 || src >= nstates || dst < 0 || dst >= nstates {
			return nil, &ParseError{lineNo, fmt.Sprintf("state out of range in (%d, %s, %d)", src, label, dst)}
		}
		l.AddTransition(lts.State(src), label, lts.State(dst))
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen != ntrans {
		return nil, &ParseError{lineNo, fmt.Sprintf("header declares %d transitions, body has %d", ntrans, seen)}
	}
	return l, nil
}

// ReadString parses an Aldebaran-format LTS from a string.
func ReadString(s string) (*lts.LTS, error) {
	return Read(strings.NewReader(s))
}

func parseHeader(line string) (init, ntrans, nstates int, err error) {
	rest, ok := strings.CutPrefix(line, "des")
	if !ok {
		return 0, 0, 0, fmt.Errorf("expected 'des' header, got %q", line)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return 0, 0, 0, fmt.Errorf("malformed des header %q", line)
	}
	parts := strings.Split(rest[1:len(rest)-1], ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("des header needs 3 fields, got %d", len(parts))
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("des header field %d: %w", i, err)
		}
		nums[i] = n
	}
	return nums[0], nums[1], nums[2], nil
}

// parseTransition parses "(src, label, dst)". The label may be quoted and
// may contain commas and parentheses when quoted.
func parseTransition(line string) (src int, label string, dst int, err error) {
	if !strings.HasPrefix(line, "(") || !strings.HasSuffix(line, ")") {
		return 0, "", 0, fmt.Errorf("transition not parenthesized: %q", line)
	}
	body := line[1 : len(line)-1]

	// src up to first comma
	i := strings.IndexByte(body, ',')
	if i < 0 {
		return 0, "", 0, fmt.Errorf("missing comma in %q", line)
	}
	src, err = strconv.Atoi(strings.TrimSpace(body[:i]))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad source state: %w", err)
	}
	rest := strings.TrimSpace(body[i+1:])

	// label: quoted or bare token up to last comma
	if strings.HasPrefix(rest, `"`) {
		var sb strings.Builder
		j := 1
		closed := false
		for j < len(rest) {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				sb.WriteByte(rest[j+1])
				j += 2
				continue
			}
			if c == '"' {
				closed = true
				j++
				break
			}
			sb.WriteByte(c)
			j++
		}
		if !closed {
			return 0, "", 0, fmt.Errorf("unterminated quoted label in %q", line)
		}
		label = sb.String()
		rest = strings.TrimSpace(rest[j:])
		rest, ok := strings.CutPrefix(rest, ",")
		if !ok {
			return 0, "", 0, fmt.Errorf("missing comma after label in %q", line)
		}
		dst, err = strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			return 0, "", 0, fmt.Errorf("bad destination state: %w", err)
		}
		return src, label, dst, nil
	}

	j := strings.LastIndexByte(rest, ',')
	if j < 0 {
		return 0, "", 0, fmt.Errorf("missing comma after label in %q", line)
	}
	label = strings.TrimSpace(rest[:j])
	if label == "" {
		return 0, "", 0, fmt.Errorf("empty label in %q", line)
	}
	dst, err = strconv.Atoi(strings.TrimSpace(rest[j+1:]))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad destination state: %w", err)
	}
	return src, label, dst, nil
}
