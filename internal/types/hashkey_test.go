package types

import (
	"math"
	"testing"
	"time"
)

// TestHashKeyFormat pins the hash key of every kind, the append form to
// the string form, and RowKey to its length-prefixed parts.
func TestHashKeyFormat(t *testing.T) {
	long := string(make([]byte, 100))
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null, "\x00"},
		{NewBool(true), "b1"},
		{NewBool(false), "b0"},
		{NewInt(3), "n3"},
		{NewFloat(3), "n3"},
		{NewInt(-7), "n-7"},
		{NewInt(1 << 60), "n1.152921504606847e+18"},
		{NewFloat(-0.5), "n-0.5"},
		{NewFloat(math.NaN()), "nNaN"},
		{NewFloat(math.Inf(-1)), "n-Inf"},
		{NewString(""), "s"},
		{NewString("a:b"), "sa:b"},
		{NewString(long), "s" + long},
		{NewTime(time.Unix(1700000000, 5000)), "t1700000000000005000"},
		{NewBytes([]byte{1, 2}), "y\x01\x02"},
	} {
		if got := tc.v.HashKey(); got != tc.want {
			t.Errorf("%v: HashKey = %q, want %q", tc.v, got, tc.want)
		}
		if got := string(tc.v.AppendHashKey([]byte("x"))); got != "x"+tc.want {
			t.Errorf("%v: AppendHashKey = %q, want %q", tc.v, got, "x"+tc.want)
		}
	}
	if got, want := RowKey(Row{NewInt(3), NewString("a:b"), Null}), "2:n34:sa:b1:\x00"; got != want {
		t.Errorf("RowKey = %q, want %q", got, want)
	}
}
