package benchdoc

import (
	"fmt"
	"strings"

	"thinbench/internal/core"
)

// PaperDoc is what `thinbench -run <id> -json` writes for registry
// experiments: each one's output next to what the paper reports for it.
// BENCH_paper.json is the whole registry (-run all) at quick length — the
// paper's tables and figures, the ablations and the extension
// experiments. Tables are recorded as the text the terminal shows, one
// string per line, so a drifted cell diffs as one line.
type PaperDoc struct {
	Command     string            `json:"command"`
	Seed        uint64            `json:"seed"`
	Quick       bool              `json:"quick"`
	Experiments []PaperExperiment `json:"experiments"`
	// Results are the runs the document records, in the same order, for
	// the CLI to render.
	Results []*core.Result `json:"-"`
}

// PaperExperiment is one registry experiment's recorded output.
type PaperExperiment struct {
	ID     string        `json:"id"`
	Title  string        `json:"title"`
	Paper  string        `json:"paper"`
	Tables [][]string    `json:"tables,omitempty"`
	Series []core.Series `json:"series,omitempty"`
	Notes  []string      `json:"notes,omitempty"`
}

// Paper runs every registry experiment across the given workers: the
// document of -run all.
func Paper(quick bool, seed uint64, workers int) (PaperDoc, error) {
	results, err := core.RunAllParallel(core.Config{Seed: seed, Quick: quick}, workers)
	if err != nil {
		return PaperDoc{}, err
	}
	return PaperRecord("all", seed, quick, results), nil
}

// PaperRecord records the results of `thinbench -run <run>`, in the
// order given, each beside its registry entry's title and paper text.
func PaperRecord(run string, seed uint64, quick bool, results []*core.Result) PaperDoc {
	doc := PaperDoc{
		Command: fmt.Sprintf("thinbench -run %s -seed %d -quick=%v", run, seed, quick),
		Seed:    seed,
		Quick:   quick,
		Results: results,
	}
	for _, r := range results {
		e, _ := core.Lookup(r.ID)
		pe := PaperExperiment{ID: r.ID, Title: e.Title, Paper: e.Paper, Series: r.Series, Notes: r.Notes}
		for _, t := range r.Tables {
			pe.Tables = append(pe.Tables, strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n"))
		}
		doc.Experiments = append(doc.Experiments, pe)
	}
	return doc
}
