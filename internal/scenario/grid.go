package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Grid is a declarative parameter sweep: a base Spec plus axes, each an
// assignment path into the spec's JSON form and a list of values. The
// cross product of the axes (row-major, last axis fastest — the order
// the paper's tables read in) expands into one concrete Spec per cell.
type Grid struct {
	// Version is the grid format version (shares the Spec version).
	Version int `json:"version"`
	// Name identifies the sweep in reports and result files.
	Name string `json:"name,omitempty"`
	// Base is the spec every cell starts from.
	Base Spec `json:"base"`
	// Axes are applied in order; an empty list means a single cell (the
	// base itself).
	Axes []Axis `json:"axes,omitempty"`
}

// RawValue is one JSON-encoded axis value.
type RawValue = json.RawMessage

// Axis is one swept parameter.
type Axis struct {
	// Path addresses a field in the Spec's JSON encoding with dots, e.g.
	// "machine.page_size", "machine.processors", "workload.profile",
	// "faults", "seed".
	Path string `json:"path"`
	// Values are the JSON values the field takes along the axis.
	Values []RawValue `json:"values"`
}

// Cell is one expanded grid point.
type Cell struct {
	// Name is "<grid name>/<axis assignments>", e.g.
	// "pagesweep/page_size=256,processors=4"; a grid with no axes yields
	// its base name.
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
}

// Expand materializes the cross product of the axes into concrete,
// normalized Specs. Expansion is deterministic: cells appear in
// row-major order with the last axis varying fastest.
func (g *Grid) Expand() ([]Cell, error) {
	if g.Version == 0 {
		g.Version = Version
	}
	if g.Version != Version {
		return nil, fmt.Errorf("scenario: unsupported grid version %d (current %d)", g.Version, Version)
	}
	for _, ax := range g.Axes {
		if ax.Path == "" {
			return nil, fmt.Errorf("scenario: grid axis with empty path")
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: grid axis %q has no values", ax.Path)
		}
	}

	// Work in the spec's generic JSON form so any serializable field is
	// addressable by path, present in the base or not. The untyped
	// document keeps every number as its literal (decodeExact) and
	// always round-trips through ParseSpec (DisallowUnknownFields)
	// below.
	baseJSON, err := json.Marshal(g.Base)
	if err != nil {
		return nil, err
	}

	total := 1
	for _, ax := range g.Axes {
		total *= len(ax.Values)
	}
	idx := make([]int, len(g.Axes))
	cells := make([]Cell, 0, total)
	for n := 0; n < total; n++ {
		//vmplint:allow canonjson decodeExact keeps each number's digits, and ParseSpec rejects a key the doc gains that Spec lacks
		var doc map[string]any
		if err := decodeExact(baseJSON, &doc); err != nil {
			return nil, err
		}
		var parts []string
		for a, ax := range g.Axes {
			raw := ax.Values[idx[a]]
			if err := setPath(doc, ax.Path, raw); err != nil {
				return nil, fmt.Errorf("scenario: axis %q: %w", ax.Path, err)
			}
			short := ax.Path[strings.LastIndexByte(ax.Path, '.')+1:]
			parts = append(parts, fmt.Sprintf("%s=%s", short, compactValue(raw)))
		}
		cellJSON, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		spec, err := ParseSpec(cellJSON)
		if err != nil {
			return nil, err
		}
		name := g.Name
		if name == "" {
			name = spec.Name
		}
		if len(parts) > 0 {
			name = strings.TrimSuffix(name+"/", "/") + "/" + strings.Join(parts, ",")
		}
		spec.Name = name
		if err := spec.Normalize(); err != nil {
			return nil, fmt.Errorf("scenario: cell %q: %w", name, err)
		}
		cells = append(cells, Cell{Name: name, Spec: *spec})

		// Odometer increment, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(g.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// setPath walks the dotted path through nested JSON objects, creating
// intermediate objects as needed, and sets the final key to the raw
// value, which keeps its literal digits.
//
//vmplint:allow canonjson doc comes from decodeExact, and Expand passes the result through ParseSpec
func setPath(doc map[string]any, path string, raw json.RawMessage) error {
	keys := strings.Split(path, ".")
	cur := doc
	for _, k := range keys[:len(keys)-1] {
		next := cur[k]
		if r, ok := next.(json.RawMessage); ok {
			// An earlier axis set this object; decode it to descend.
			if err := decodeExact(r, &next); err != nil {
				return err
			}
		}
		if next == nil {
			//vmplint:allow canonjson a new object holds only the path's keys, and ParseSpec rejects one that names no field
			child := map[string]any{}
			cur[k] = child
			cur = child
			continue
		}
		//vmplint:allow canonjson an object of a decodeExact document, whose numbers keep their digits
		child, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path element %q is not an object", k)
		}
		cur[k] = child
		cur = child
	}
	if !json.Valid(raw) {
		return fmt.Errorf("bad value %s", raw)
	}
	cur[keys[len(keys)-1]] = raw
	return nil
}

// decodeExact decodes data into v, keeping each number as its literal
// (json.Number): a float64 would round integers past 2^53, such as a
// seed, and cannot hold 2^64-1.
func decodeExact(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// compactValue renders an axis value for a cell name: strings lose
// their quotes, everything else keeps its compact JSON form.
func compactValue(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// Values is a convenience constructor for an axis value list.
func Values(vs ...any) []RawValue {
	out := make([]RawValue, len(vs))
	for i, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			// Only non-serializable Go values can fail here; axes are
			// built from numbers and strings.
			panic(fmt.Sprintf("scenario.Values: %v", err))
		}
		out[i] = b
	}
	return out
}

// AxisValues returns the decoded values of the named axis, or nil when
// the grid has no such axis — the helper experiments use to read their
// sweep parameters from their own grid definition. A number decodes
// as its literal (json.Number), so no digit is lost.
func (g *Grid) AxisValues(path string) []any {
	for _, ax := range g.Axes {
		if ax.Path != path {
			continue
		}
		out := make([]any, len(ax.Values))
		for i, raw := range ax.Values {
			if err := decodeExact(raw, &out[i]); err != nil {
				return nil
			}
		}
		return out
	}
	return nil
}

// IntAxis returns the named axis's values as ints, each parsed exactly
// from its literal. Nil when absent, or when a value is not an integer
// or does not fit in an int.
func (g *Grid) IntAxis(path string) []int {
	vs := g.AxisValues(path)
	if vs == nil {
		return nil
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		n, ok := v.(json.Number)
		if !ok {
			return nil
		}
		x, err := strconv.ParseInt(string(n), 10, strconv.IntSize)
		if err != nil {
			return nil
		}
		out[i] = int(x)
	}
	return out
}

// StringAxis returns the named axis's values as strings. Nil when
// absent or not strings.
func (g *Grid) StringAxis(path string) []string {
	vs := g.AxisValues(path)
	if vs == nil {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		s, ok := v.(string)
		if !ok {
			return nil
		}
		out[i] = s
	}
	return out
}

// ParseGrid reads a Grid from JSON, rejecting unknown fields.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("scenario: parsing grid: %w", err)
	}
	return &g, nil
}

// ReadGridFile loads a Grid from a JSON file.
func ReadGridFile(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := ParseGrid(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
