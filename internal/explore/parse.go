package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// DecodeSpec strictly parses a JSON exploration spec, rejecting unknown
// fields — the same contract the service's submission endpoint applies,
// so a typo fails identically offline and over HTTP.
func DecodeSpec(b []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseAxes parses a CLI axis list of the form
// "name=min:max[:points],name=min:max[:points],...".
func ParseAxes(s string) ([]Axis, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var axes []Axis
	for _, part := range strings.Split(s, ",") {
		name, rng, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("explore: bad axis %q (want name=min:max[:points])", part)
		}
		fields := strings.Split(rng, ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("explore: bad axis range %q (want min:max[:points])", rng)
		}
		min, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("explore: bad axis min %q: %w", fields[0], err)
		}
		max, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("explore: bad axis max %q: %w", fields[1], err)
		}
		ax := Axis{Name: strings.TrimSpace(name), Min: min, Max: max}
		if len(fields) == 3 {
			pts, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("explore: bad axis points %q: %w", fields[2], err)
			}
			ax.Points = pts
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// ParseFixed parses a CLI pinned-parameter list of the form
// "name=value,name=value,...".
func ParseFixed(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	fixed := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("explore: bad fixed parameter %q (want name=value)", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("explore: bad fixed value %q: %w", val, err)
		}
		fixed[strings.TrimSpace(name)] = v
	}
	return fixed, nil
}
