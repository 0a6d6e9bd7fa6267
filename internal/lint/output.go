package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// Machine-readable output: SARIF 2.1.0 for code-scanning uploads,
// built from the Finding slice that Run returns. The output is
// byte-deterministic for a given finding list — Run already sorts
// findings, and the encoder below emits fixed field orders — so it is
// golden-testable.

// SARIF 2.1.0 skeleton — only the fields code-scanning consumes.
// Struct field order pins the output bytes.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifText          `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification"`
}

// WriteSARIF writes findings as a single-run SARIF 2.1.0 log. Every
// analyzer in the suite appears in the rules table (so rule metadata
// is stable whether or not the rule fired); suppressed findings are
// emitted with an inSource suppression carrying the //vmplint:allow
// reason, which code-scanning displays as dismissed. File paths
// become forward-slash URIs relative to %SRCROOT% — pass repo-relative
// paths for upload.
func WriteSARIF(w io.Writer, findings []Finding) error {
	suite := All()
	rules := make([]sarifRule, len(suite))
	ruleIndex := make(map[string]int, len(suite))
	for i, a := range suite {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}}
		ruleIndex[a.Name] = i
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.Rule]
		if !ok {
			// The audit meta-rule ("vmplint") is not in the suite table;
			// give it a slot at the end on first use.
			idx = len(rules)
			rules = append(rules, sarifRule{ID: f.Rule,
				ShortDescription: sarifText{Text: "suppression-audit meta rule"}})
			ruleIndex[f.Rule] = idx
		}
		r := sarifResult{
			RuleID:    f.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{
					URI:       filepath.ToSlash(f.Pos.Filename),
					URIBaseID: "%SRCROOT%",
				},
				Region: sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		}
		if f.Suppressed {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: f.Reason}}
		}
		results = append(results, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "vmplint", Rules: rules}}, Results: results}},
	})
}
