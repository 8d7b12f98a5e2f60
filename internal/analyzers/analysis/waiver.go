package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Waivers: a finding is suppressed by a directive comment
//
//	//batlint:ignore <analyzer> <justification>
//
// placed at the end of the flagged line, on its own line immediately
// above, or — for findings whose flagged expression spans several lines —
// on any line the expression covers. The justification is mandatory — a
// bare //batlint:ignore is itself reported — so every suppression in the
// tree records why the invariant does not apply (the audit trail
// DESIGN.md §9 describes). <analyzer> may be a comma-separated list.
const waiverPrefix = "batlint:ignore"

type waiver struct {
	analyzers []string
	reason    string
	line      int
	used      bool
}

// applyWaivers filters one package's findings through its waiver comments:
// covered findings come back marked Waived (with the justification) rather
// than dropped, so machine-readable output can show them. Malformed
// directives (no analyzer name or no justification) become findings
// themselves, attributed to the pseudo-analyzer "waiver". ran holds the
// analyzers that actually executed: staleness is only judged for waivers
// naming at least one of them, so running part of the suite (one analyzer
// over its fixtures) does not mark the other analyzers' waivers stale.
func applyWaivers(pkg *Package, diags []Finding, ran map[string]bool) []Finding {
	// file name -> waivers in that file
	waivers := map[string][]*waiver{}
	var out []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					out = append(out, Finding{
						Analyzer: "waiver",
						Pos:      pos,
						EndLine:  pos.Line,
						Message:  "//batlint:ignore needs an analyzer name and a justification: //batlint:ignore <analyzer> <why>",
					})
					continue
				}
				w := &waiver{
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
					line:      pos.Line,
				}
				waivers[pos.Filename] = append(waivers[pos.Filename], w)
			}
		}
	}
	for _, d := range diags {
		if w := matchWaiver(waivers[d.Pos.Filename], d); w != nil {
			w.used = true
			d.Waived = true
			d.WaiverReason = w.reason
		}
		out = append(out, d)
	}
	// An unmatched waiver is stale: the finding it excused is gone, so the
	// justification no longer documents anything. Surfacing it keeps the
	// audit trail honest.
	for file, ws := range waivers {
		for _, w := range ws {
			ranAny := false
			for _, a := range w.analyzers {
				if ran[a] {
					ranAny = true
				}
			}
			if !w.used && ranAny {
				out = append(out, Finding{
					Analyzer: "waiver",
					Pos:      token.Position{Filename: file, Line: w.line, Column: 1},
					EndLine:  w.line,
					Message:  "stale //batlint:ignore: no " + strings.Join(w.analyzers, ",") + " finding covers this line",
				})
			}
		}
	}
	return out
}

// directiveText returns the payload after //batlint:ignore, reporting ok
// only for comments that are the directive.
func directiveText(c *ast.Comment) (string, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, waiverPrefix) {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, waiverPrefix)), true
}

// matchWaiver finds a waiver covering the finding: same analyzer, same
// file, on any line from the one above the finding through the end of the
// flagged expression. The lower bound keeps the classic waiver-above
// idiom working; the upper bound covers findings reported at an inner
// expression whose statement spans multiple lines, where gofmt pins the
// directive to a later line than the reported position.
func matchWaiver(ws []*waiver, d Finding) *waiver {
	last := d.EndLine
	if last < d.Pos.Line {
		last = d.Pos.Line
	}
	for _, w := range ws {
		if w.line < d.Pos.Line-1 || w.line > last {
			continue
		}
		for _, a := range w.analyzers {
			if a == d.Analyzer {
				return w
			}
		}
	}
	return nil
}
