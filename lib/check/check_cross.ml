module Diagnostic = Tsg_util.Diagnostic
module Bitset = Tsg_util.Bitset
module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Gen_iso = Tsg_iso.Gen_iso
module Pattern = Tsg_core.Pattern
module Pattern_io = Tsg_core.Pattern_io
module Store = Tsg_query.Store

let check_closure c ?file ~taxonomy ~db_labels ~node_labels located =
  let known = Taxonomy.label_count taxonomy in
  List.iteri
    (fun i (l : Pattern_io.located) ->
      let g = l.Pattern_io.pattern.Pattern.graph in
      List.iter
        (fun label ->
          if label >= 0 && label < known then begin
            let matchable =
              Bitset.exists
                (fun d -> Bitset.mem db_labels d)
                (Taxonomy.descendant_set taxonomy label)
            in
            if not matchable then
              Diagnostic.emitf c ?file ~line:l.Pattern_io.header_line
                ~rule:"X001" Diagnostic.Warning
                "pattern #%d: no database label specializes %s — the pattern \
                 can never match"
                i
                (Label.name node_labels label)
          end)
        (Graph.distinct_node_labels g))
    located

let check_store c store =
  let error fmt = Diagnostic.emitf c ~rule:"X002" Diagnostic.Error fmt in
  let taxonomy = Store.taxonomy store in
  let known = Taxonomy.label_count taxonomy in
  let n = Store.size store in
  let patterns = Store.patterns store in
  if Array.length patterns <> n then
    error "store size %d but %d patterns" n (Array.length patterns);
  (* re-derive the label indexes from the taxonomy side, independently of
     Store.build's walk from the pattern side: [carrying.(a)] holds the
     patterns with a node labeled [a]; a pattern generalizes [l] when it
     carries an ancestor of [l], and mentions (a specialization of) [l]
     when it carries a descendant of [l] *)
  let carrying = Array.init known (fun _ -> Bitset.create n) in
  Array.iteri
    (fun i (p : Pattern.t) ->
      List.iter
        (fun l -> if l >= 0 && l < known then Bitset.set carrying.(l) i)
        (Graph.distinct_node_labels p.Pattern.graph))
    patterns;
  let union_over labels =
    let acc = Bitset.create n in
    Bitset.iter (fun a -> Bitset.union_into ~dst:acc acc carrying.(a)) labels;
    acc
  in
  for l = 0 to known - 1 do
    let expect_gen = union_over (Taxonomy.ancestor_set taxonomy l) in
    let expect_men = union_over (Taxonomy.descendant_set taxonomy l) in
    if not (Bitset.equal (Store.generalizing store l) expect_gen) then
      error "generalizing index disagrees at label %s"
        (Taxonomy.name taxonomy l);
    if not (Bitset.equal (Store.mentioning store l) expect_men) then
      error "mentioning index disagrees at label %s" (Taxonomy.name taxonomy l)
  done;
  (* edge-count buckets *)
  Array.iteri
    (fun i (p : Pattern.t) ->
      let e = Pattern.edge_count p in
      if not (Bitset.mem (Store.with_at_most_edges store e) i) then
        error "pattern #%d (%d edges) missing from its edge bucket" i e;
      if e > 0 && Bitset.mem (Store.with_at_most_edges store (e - 1)) i then
        error "pattern #%d (%d edges) present in bucket %d" i e (e - 1))
    patterns;
  (* support order: a permutation of 0..n-1, support non-increasing *)
  let order = Store.by_support store in
  if Array.length order <> n then
    error "by_support has %d entries for %d patterns" (Array.length order) n
  else begin
    let seen = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n then error "by_support mentions bad id %d" i
        else if seen.(i) then error "by_support repeats id %d" i
        else seen.(i) <- true)
      order;
    for k = 0 to Array.length order - 2 do
      let a = order.(k) and b = order.(k + 1) in
      if
        a >= 0 && a < n && b >= 0 && b < n
        && patterns.(a).Pattern.support_count
           < patterns.(b).Pattern.support_count
      then
        error "by_support not sorted: #%d (support %d) before #%d (support %d)"
          a
          patterns.(a).Pattern.support_count
          b
          patterns.(b).Pattern.support_count
    done
  end

let check_supports c ?file ~taxonomy ~db located =
  List.iteri
    (fun i (l : Pattern_io.located) ->
      let p = l.Pattern_io.pattern in
      let actual =
        Gen_iso.support_count taxonomy ~pattern:p.Pattern.graph db
      in
      if actual <> p.Pattern.support_count then
        Diagnostic.emitf c ?file ~line:l.Pattern_io.header_line ~rule:"X003"
          Diagnostic.Error
          "pattern #%d records support %d but %d database graphs contain it" i
          p.Pattern.support_count actual)
    located
