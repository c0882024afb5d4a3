package opt

import (
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// nonZero builds a non-zero value of type t: every field a plan node can
// carry is a number, a flag, a string, a slice, a pointer, xdm.Item or a
// struct of exported fields.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	if typ == reflect.TypeOf(xdm.Item{}) {
		return reflect.ValueOf(xdm.NewString("x"))
	}
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.Append(v, nonZero(t, typ.Elem())))
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				t.Fatalf("cannot fill unexported field %s.%s", typ, typ.Field(i).Name)
			}
			v.Field(i).Set(nonZero(t, typ.Field(i).Type))
		}
	default:
		t.Fatalf("no non-zero value for %s", typ)
	}
	return v
}

// TestCopyWithKidsCopiesEveryField: a field added to algebra.Node and
// forgotten in copyWithKids would be dropped, silently, from every node a
// rule or hash-consing rebuilds.
func TestCopyWithKidsCopiesEveryField(t *testing.T) {
	var n algebra.Node
	v := reflect.ValueOf(&n).Elem()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "Kids" && f.IsExported() {
			v.Field(i).Set(nonZero(t, f.Type))
		}
	}
	c := reflect.ValueOf(copyWithKids(&n, nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Kids" || !f.IsExported() {
			continue // the children are new; the schema cache recomputes
		}
		if !reflect.DeepEqual(c.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("copyWithKids drops Node.%s", f.Name)
		}
	}
}
