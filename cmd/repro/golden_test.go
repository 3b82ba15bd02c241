package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestStdoutGolden pins the SHA-256 of the stdout of the sections that need
// no simulation: the Fig. 4 matrix, the cost model's Figs. 5/6 and 10/11
// tables and the headline savings.
func TestStdoutGolden(t *testing.T) {
	for _, g := range []struct {
		args string
		want string
	}{
		{"-only fig4", "7c50d6731a49c255e3d2e826324c5e5220f75abad4374aeba42124abd9967db7"},
		{"-only fig5", "819453805235a39b42f28391de266b99d43dbf4d2254712253291848d5831bca"},
		{"-only fig10", "3658e24ec210431dc9fff406329ea24aa93d9c8506b62e2a38650ce1d9408568"},
		{"-only summary", "5eb102aaa440b0903c3f6a4b1647330671b79aabbea83c2d57b1a9c1bac21038"},
	} {
		out := runOK(t, strings.Fields(g.args)...)
		if got := digest(out); got != g.want {
			t.Errorf("%s: stdout digest %s, want %s\n%s", g.args, got, g.want, out)
		}
	}
}

// TestCurveStdoutGolden pins the SHA-256 of stdout for the three network
// figure sections at a tiny scale. Every point is an independent, seeded
// simulation, so the digest holds for any worker count: each section is run
// at the pinned -workers 2 and again at 1 and 4.
func TestCurveStdoutGolden(t *testing.T) {
	const scale = " -warmup 100 -measure 200 -drain 800 -workers 2"
	for _, g := range []struct {
		args string
		want string
	}{
		{"-only fig13" + scale, "ae989fe9dcb0badc50777e8b2c3d8e7904c028d7f50a664ef54a6a86780db143"},
		{"-only fig14" + scale, "68de1402c50e3a501d4ef7cc7dd579640932fc6860963e4243dc63e17da3b166"},
		{"-only vasweep" + scale, "522fcadc4e8c823865d91681f68a82530d5b49ec6c73eb1e1c36ac86cdcb9cc5"},
	} {
		for _, workers := range []string{"", " -workers 1", " -workers 4"} {
			args := g.args + workers
			if got := digest(runOK(t, strings.Fields(args)...)); got != g.want {
				t.Errorf("%s: stdout digest %s, want %s", args, got, g.want)
			}
		}
	}
}

// matrixRow matches one row of the Fig. 4 matrix: the input VC's index and
// class tag, then one cell per output VC.
var matrixRow = regexp.MustCompile(`(?m)^ ?\d+ \(m\d,r\d,c\d\) .*\n`)

// TestFig4Matrix: the 16 matrix rows are byte-identical to those the
// separate vctransitions command printed (the digest was taken from it),
// and every ● or · lies under a digit of its column's number in the header.
func TestFig4Matrix(t *testing.T) {
	out := runOK(t, "-only", "fig4")
	rows := matrixRow.FindAllString(out, -1)
	if len(rows) != 16 {
		t.Fatalf("%d matrix rows, want 16:\n%s", len(rows), out)
	}
	if got := digest(strings.Join(rows, "")); got != "021e9cb370cbdd42ce55e0589483cb9214a0c96ff82722a2b603db3a6210bb6f" {
		t.Errorf("matrix rows digest %s", got)
	}
	lines := strings.Split(out, "\n")
	first := slices.Index(lines, strings.TrimSuffix(rows[0], "\n"))
	header := []rune(lines[first-1])
	for _, row := range rows {
		col := 0
		for i, r := range []rune(row) {
			if r != '●' && r != '·' {
				continue
			}
			if got := numberAt(header, i); got != col {
				t.Fatalf("mark %d of row %q sits under %q (column %d), want column %d\n%s", col, row, string(header), got, col, out)
			}
			col++
		}
		if col != 16 {
			t.Fatalf("row %q has %d cells, want 16", row, col)
		}
	}
}

// numberAt returns the number whose digits cover position i of line, or -1
// when position i holds no digit.
func numberAt(line []rune, i int) int {
	isDigit := func(j int) bool { return j >= 0 && j < len(line) && unicode.IsDigit(line[j]) }
	if !isDigit(i) {
		return -1
	}
	lo, hi := i, i+1
	for isDigit(lo - 1) {
		lo--
	}
	for isDigit(hi) {
		hi++
	}
	n, _ := strconv.Atoi(string(line[lo:hi]))
	return n
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, errOut.String())
	}
	return out.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
