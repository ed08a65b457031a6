package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed exposition keyed by the series' canonical text
// (name plus labels sorted by name), so two scrapes line up series by
// series.
type scrape map[string]sample

// parseExposition parses the Prometheus text format adasimd serves at
// /metrics. Comment lines are skipped; a malformed sample line is an
// error, since every later number would be suspect.
func parseExposition(text string) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", ln, err)
		}
		out[seriesKey(s.name, s.labels)] = s
	}
	return out, sc.Err()
}

// parseSample parses `name{l1="v1",l2="v2"} value`.
func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("bad labels in %q", line)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[name] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

func seriesKey(name string, labels map[string]string) string {
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range names {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

// delta is the per-series difference after − before. Series absent
// before count from zero; gauges are taken as their after value by the
// callers that need levels (see level).
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// sum adds the values of every series named name whose labels include
// all of match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	var total float64
	for _, s := range sc {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// histMean is the mean of the histogram family name over the matching
// series (sum over count), scaled by scale; zero when it saw nothing.
func (sc scrape) histMean(name string, match map[string]string, scale float64) float64 {
	n := sc.sum(name+"_count", match)
	if n == 0 {
		return 0
	}
	return sc.sum(name+"_sum", match) / n * scale
}

// ratio is num/den, zero when den is zero (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
