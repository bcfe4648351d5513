package classify

import (
	"testing"

	"extract/xmltree"
)

const sample = `
<retailer>
  <name>Brook Brothers</name>
  <store>
    <city>Houston</city>
    <merchandises>
      <clothes><category>suit</category></clothes>
      <clothes><category>skirt</category></clothes>
    </merchandises>
  </store>
  <store>
    <city>Austin</city>
    <merchandises>
      <clothes><category>outwear</category></clothes>
    </merchandises>
  </store>
</retailer>`

// infer is the summary of one whole document.
func infer(doc *xmltree.Document) summary { return merge([]*Partial{Infer(doc)}) }

func TestInferStars(t *testing.T) {
	s := infer(parse(t, sample))
	stars := s.starNodes()
	if !stars["store"] || !stars["clothes"] {
		t.Errorf("stars = %v", stars)
	}
	for _, label := range []string{"retailer", "name", "city", "merchandises", "category"} {
		if stars[label] {
			t.Errorf("%s wrongly starred", label)
		}
	}
}

func TestInferAttributeLike(t *testing.T) {
	s := infer(parse(t, sample))
	attrs := s.attributeLike()
	for _, label := range []string{"name", "city", "category"} {
		if !attrs[label] {
			t.Errorf("%s should be attribute-like: %+v", label, s[label])
		}
	}
	for _, label := range []string{"retailer", "store", "merchandises", "clothes"} {
		if attrs[label] {
			t.Errorf("%s wrongly attribute-like", label)
		}
	}
}

func TestInferCounts(t *testing.T) {
	s := infer(parse(t, sample))
	store := s["store"]
	if store.count != 2 {
		t.Errorf("store info = %+v", store)
	}
	clothes := s["clothes"]
	if clothes.count != 3 {
		t.Errorf("clothes info = %+v", clothes)
	}
}

func TestInferMixedShape(t *testing.T) {
	// A label that is sometimes single-text, sometimes structured, must
	// not be attribute-like.
	s := infer(parse(t, `<r><x>plain</x><x><y>nested</y></x></r>`))
	if s.attributeLike()["x"] {
		t.Error("x must not be attribute-like")
	}
	if !s.attributeLike()["y"] {
		t.Error("y should be attribute-like")
	}
}

func TestInferEmpty(t *testing.T) {
	s := infer(xmltree.NewDocument(nil))
	if len(s) != 0 {
		t.Errorf("empty doc summary = %+v", s)
	}
}
