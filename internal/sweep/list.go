package sweep

import (
	"fmt"
	"strings"
)

// ParseList resolves a comma-separated list knob that narrows one sweep
// axis: "" selects all; otherwise every element, trimmed of surrounding
// space, must resolve through parse. An element that does not — a typo, or
// the empty element of a doubled or trailing comma — is an error naming it
// (what describes the axis), so a misspelled knob never silently narrows or
// widens a sweep.
func ParseList[T any](list, what string, all []T, parse func(string) (T, bool)) ([]T, error) {
	if list == "" {
		return all, nil
	}
	var out []T
	for _, s := range strings.Split(list, ",") {
		name := strings.TrimSpace(s)
		v, ok := parse(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("unknown %s %q (want one of %v)", what, name, all)
		}
		out = append(out, v)
	}
	return out, nil
}
