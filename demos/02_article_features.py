"""
Appearance features from raw wikitext
=====================================
"""

from hoaxlens import (
    ArticleSource,
    compute_features,
    count_words,
    extract_external_links,
    extract_wikilinks,
    strip_markup,
)

markup = """\
{{Infobox scientist|name=Example Person}}
'''Example Person''' was a [[physicist]] who worked on [[Optics|optical theory]].
<ref>An uncited claim.</ref>

== Career ==
Her early work appeared in [http://journal.example the Journal] and later at
https://archive.example/papers online.

[[Category:Physicists]]
[[de:Beispiel]]
"""

plain = strip_markup(markup)
print("plain text:")
print(plain)
print()

print(f"markup words: {count_words(markup)}")
print(f"plain words:  {count_words(plain)}")
print(f"wikilinks:    {extract_wikilinks(markup)}")
print(f"ext links:    {extract_external_links(markup)}")

# The four features: plain length, plain-to-markup word ratio, and link
# densities per 100 markup words.
features = compute_features(ArticleSource("Example_Person", markup), extract_wikilinks(markup))
print(f"\nplain_length          {features.plain_length}")
print(f"plain_to_markup_ratio {features.plain_to_markup_ratio:.4f}")
print(f"wikilink_density      {features.wikilink_density:.4f}")
print(f"extlink_density       {features.extlink_density:.4f}")

# Concatenating an article with itself doubles the length but leaves the
# ratio and densities untouched.
twice = markup + "\n" + markup
doubled = compute_features(ArticleSource("Doubled", twice), extract_wikilinks(twice))
print(f"\ndoubled article: length {doubled.plain_length}, "
      f"ratio still {doubled.plain_to_markup_ratio:.4f}")
