package analysis

// facts.go lets an analyzer carry results across package boundaries,
// after the object facts of golang.org/x/tools/go/analysis. An analyzer
// running on package P may attach facts to P's functions, methods and
// package-level vars; when the same analyzer later runs on a package
// that imports P, it looks those facts up through the imported objects.
// Facts live in one in-memory map per analyzer for the length of a Run.

import (
	"go/types"
	"reflect"
)

// Fact is an analyzer-defined datum attached to an object.
// Implementations must be pointers to structs.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factKey identifies one object fact across packages: the object's
// package path, its intra-package path (see objectPath) and the
// concrete fact type.
type factKey struct {
	Pkg  string
	Obj  string
	Type reflect.Type
}

// objectPath names obj within its package: "Name" for package-level
// objects, "Type.Method" for methods. Objects outside those shapes
// (locals, struct fields) cannot carry facts.
func objectPath(obj types.Object) (string, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + f.Name(), true
		}
	}
	if obj.Parent() == pkg.Scope() {
		return obj.Name(), true
	}
	return "", false
}

// factKeyOf returns the store key of fact's type on obj.
func factKeyOf(obj types.Object, fact Fact) (factKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return factKey{}, false
	}
	path, ok := objectPath(obj)
	if !ok {
		return factKey{}, false
	}
	return factKey{Pkg: obj.Pkg().Path(), Obj: path, Type: reflect.TypeOf(fact)}, true
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis. The fact is visible to this analyzer from
// then on, in this package and in every package that imports it.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	if key, ok := factKeyOf(obj, fact); ok {
		p.facts[key] = fact
	}
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact and reports whether one was found. obj may belong to any
// package already analyzed in this Run, or to the current one.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	key, ok := factKeyOf(obj, fact)
	if !ok {
		return false
	}
	stored, ok := p.facts[key]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
