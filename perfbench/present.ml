(* Seeded presentations of a fixed mining instance.

   Independently drawn Table-1 databases of the sizes a 25-second run can
   mine vary by about a sixth in op cost from seed to seed, which would
   drown any regression bound. So each mining workload fixes its instance
   (taxonomy + database), and the run seed draws an isomorphic
   presentation of it: concepts renamed and declared in shuffled order
   (which changes every label id), is-a lines shuffled, graphs and the
   nodes and edges of every graph permuted, edge labels renamed. The
   miner sees different files, ids and search orders on every seed but
   the same amount of work, and its output, mapped back to the fixed
   instance, must not change at all. *)

module Taxonomy = Tsg_taxonomy.Taxonomy
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Pattern = Tsg_core.Pattern
module Min_code = Tsg_gspan.Min_code

type t = {
  concept : (string, int) Hashtbl.t;  (* presented name -> instance label *)
  edge : (string, int) Hashtbl.t;  (* presented edge name -> instance label *)
  graph : int array;  (* presented graph id -> instance graph id *)
}

let permutation rng n =
  let a = Array.init n Fun.id in
  Prng.shuffle rng a;
  a

let shuffled rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  Array.to_list a

(* write the presentation drawn from [rng] to [tax_path] / [db_path] *)
let write rng ~taxonomy ~edge_count db ~tax_path ~db_path =
  let n = Taxonomy.label_count taxonomy in
  let real =
    List.filter (fun l -> not (Taxonomy.is_artificial taxonomy l)) (List.init n Fun.id)
  in
  let code = permutation rng (List.length real) in
  let name = Array.init n (Taxonomy.name taxonomy) in
  List.iteri (fun i l -> name.(l) <- Printf.sprintf "x%04d" code.(i)) real;
  let tax = Buffer.create 65536 in
  List.iter (fun l -> Printf.bprintf tax "c %s\n" name.(l)) (shuffled rng real);
  List.concat_map
    (fun l ->
      List.filter_map
        (fun p ->
          if Taxonomy.is_artificial taxonomy p then None else Some (l, p))
        (Taxonomy.parents taxonomy l))
    real
  |> shuffled rng
  |> List.iter (fun (c, p) -> Printf.bprintf tax "i %s %s\n" name.(c) name.(p));
  Measure.write_file tax_path (Buffer.contents tax);
  let ecode = permutation rng edge_count in
  let ename = Array.init edge_count (fun e -> Printf.sprintf "y%02d" ecode.(e)) in
  let order = permutation rng (Db.size db) in
  let graphs =
    Array.map
      (fun gid ->
        let g = Db.get db gid in
        let p = permutation rng (Graph.node_count g) in
        let labels = Array.make (Graph.node_count g) 0 in
        Array.iteri (fun v l -> labels.(p.(v)) <- l) (Graph.node_labels g);
        let edges =
          Array.to_list (Graph.edges g)
          |> List.map (fun (u, v, l) ->
                 if Prng.bool rng then (p.(u), p.(v), l) else (p.(v), p.(u), l))
          |> shuffled rng
        in
        Graph.build ~labels ~edges)
      order
  in
  Measure.write_file db_path
    (Serial.db_to_string
       ~node_labels:(Label.of_names (Array.to_list name))
       ~edge_labels:(Label.of_names (Array.to_list ename))
       (Db.of_array graphs));
  let concept = Hashtbl.create n in
  Array.iteri (fun l s -> Hashtbl.replace concept s l) name;
  let edge = Hashtbl.create edge_count in
  Array.iteri (fun e s -> Hashtbl.replace edge s e) ename;
  { concept; edge; graph = order }

(* Digest of a mined pattern set mapped back to the instance: every
   pattern as its minimum-DFS-code key over instance labels plus its
   support set over instance graph ids, sorted. Equal for every
   presentation of the same instance iff the miner's answer is the same. *)
let canonical_digest t ~taxonomy ~edge_labels patterns =
  let lines =
    List.map
      (fun (p : Pattern.t) ->
        let g = p.Pattern.graph in
        let labels =
          Array.map
            (fun l -> Hashtbl.find t.concept (Taxonomy.name taxonomy l))
            (Graph.node_labels g)
        in
        let edges =
          Array.to_list (Graph.edges g)
          |> List.map (fun (u, v, l) ->
                 (u, v, Hashtbl.find t.edge (Label.name edge_labels l)))
        in
        let support =
          Bitset.fold (fun gid acc -> t.graph.(gid) :: acc) p.Pattern.support_set []
          |> List.sort compare
        in
        Min_code.canonical_key (Graph.build ~labels ~edges)
        ^ "|"
        ^ String.concat "," (List.map string_of_int support))
      patterns
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

(* Digest of a pattern list exactly as returned: order, node numbering,
   label ids and support sets. Two runs over the same loaded inputs must
   agree byte for byte whatever the domain count. *)
let raw_digest patterns =
  let b = Buffer.create 65536 in
  List.iter
    (fun (p : Pattern.t) ->
      let g = p.Pattern.graph in
      Array.iter (fun l -> Printf.bprintf b "%d," l) (Graph.node_labels g);
      Array.iter (fun (u, v, l) -> Printf.bprintf b "%d-%d/%d," u v l) (Graph.edges g);
      Printf.bprintf b "|%d|" p.Pattern.support_count;
      Bitset.iter (fun gid -> Printf.bprintf b "%d," gid) p.Pattern.support_set;
      Buffer.add_char b '\n')
    patterns;
  Digest.to_hex (Digest.string (Buffer.contents b))
