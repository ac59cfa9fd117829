"""End-to-end mini document store: the system a downstream user builds.

Run:  python examples/document_store.py

Chains every layer of the library the way the paper's motivating XML
database would:

1. parse an auction document (from-scratch parser);
2. label it with an L-Tree tuned for the expected size (§3.2);
3. shred it into the relational interval table (§1's storage);
4. answer XPath queries with attribute predicates via structural joins;
5. apply a day of edits — inserts, subtree moves, deletions;
6. persist the labels, restart, and verify queries still agree;
7. compact the accumulated tombstones and re-verify.
"""

from repro.core import tuning
from repro.core.persistence import restore, snapshot
from repro.core.stats import Counters
from repro.labeling import LabeledDocument
from repro.query import evaluate_dom, evaluate_interval, parse_xpath
from repro.storage import IntervalTableStore
from repro.xml import XMLElement, XMLTextNode, xmark_like

QUERIES = (
    "//item[@id='item7']/name",
    "/site//increase",
    "//person/emailaddress",
)


def check_queries(document, labeled) -> None:
    store = IntervalTableStore(labeled)
    for text in QUERIES:
        query = parse_xpath(text)
        via_labels = evaluate_interval(store, query)
        via_navigation = evaluate_dom(document, query)
        assert [id(e) for e in via_labels] == \
            [id(e) for e in via_navigation]
        print(f"  {text:32s} -> {len(via_labels):3d} results (verified)")


def tuned_params(n: int, max_bits: int):
    """§3.2 problem 2: the cheapest updates whose labels fit ``max_bits``.

    Searched over an integer (f, s) grid, which needs no numpy or scipy.
    """
    rows = [(cost, params) for params, cost, bits in
            tuning.cost_grid(n, range(4, 65), range(2, 17))
            if bits <= max_bits]
    return min(rows, key=lambda row: row[0])[1]


def main() -> None:
    # 1-2: parse and label with tuned parameters
    document = xmark_like(n_items=40, n_people=20, n_auctions=12, seed=8)
    expected_size = 4 * document.count_nodes()  # plan for growth
    params = tuned_params(expected_size, 32)
    print(f"tuned for n0={expected_size}: {params.describe()}")
    stats = Counters()
    labeled = LabeledDocument(document, params=params, stats=stats)

    print("\ninitial queries:")
    check_queries(document, labeled)

    # 5: a day of edits
    regions = next(document.find_all("regions"))
    africa = next(document.find_all("africa"))
    for edit in range(25):
        item = XMLElement("item", [("id", f"day2-{edit}")])
        name = XMLElement("name")
        name.append_child(XMLTextNode(f"late listing {edit}"))
        item.append_child(name)
        labeled.insert_subtree(africa, 0, item)
    first_item = next(document.find_all("item"))
    labeled.move_subtree(first_item, africa, 0)
    for victim in list(document.find_all("open_auction"))[:5]:
        labeled.delete_subtree(victim)
    labeled.validate()
    print(f"\nafter edits: {document.count_elements()} elements, "
          f"{stats.relabels} relabels, {stats.splits} splits, "
          f"{labeled.scheme.tree.tombstone_count()} tombstones")
    check_queries(document, labeled)

    # 6: persist labels only and restore them (the scheme carries no
    # payloads: the DOM nodes hold their own handles)
    wire = snapshot(labeled.scheme.tree, include_payloads=False)
    rebuilt_tree = restore(wire)
    assert rebuilt_tree.labels() == labeled.scheme.tree.labels()
    print(f"\npersisted and restored {rebuilt_tree.n_leaves} labels "
          f"bit-for-bit (structure reconstructed from labels alone)")

    # 7: vacuum and prove the store still answers correctly
    before_bits = labeled.scheme.tree.max_label().bit_length()
    reclaimed = labeled.compact()
    print(f"compacted: {reclaimed} dead slots reclaimed, labels "
          f"{before_bits} -> "
          f"{labeled.scheme.tree.max_label().bit_length()} bits")
    labeled.validate()
    print("\nqueries after compaction:")
    check_queries(document, labeled)


if __name__ == "__main__":
    main()
