open Xr_xml
module Inverted = Xr_index.Inverted
module Index = Xr_index.Index

(* Tags of the proper ancestors of [d] down to depth [stop] (exclusive of
   [d] itself, inclusive of the node at depth [stop]). *)
let ancestor_tags doc d ~stop =
  let rec go depth acc =
    if depth < stop then acc
    else
      let prefix = Dewey.prefix d depth in
      match Doc.find doc prefix with
      | Some node -> go (depth - 1) (node.Doc.tag :: acc)
      | None -> go (depth - 1) acc
  in
  go (Dewey.depth d - 1) []

let related doc a b =
  match (Doc.find doc a, Doc.find doc b) with
  | Some _, Some _ ->
    if Dewey.equal a b then true
    else begin
      let lca_depth = Dewey.common_prefix_len a b in
      (* path nodes between the endpoints, through the LCA, endpoints
         excluded: strict ancestors of [a] down to the LCA (inclusive)
         plus strict ancestors of [b] down to just above the LCA *)
      let side_a = ancestor_tags doc a ~stop:lca_depth in
      let side_b = ancestor_tags doc b ~stop:(lca_depth + 1) in
      (* when one endpoint is an ancestor of the other, its side is empty
         and the other side is the direct path: same rule applies *)
      let tags = side_a @ side_b in
      let seen = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun tag ->
          if Hashtbl.mem seen tag then ok := false else Hashtbl.add seen tag ())
        tags;
      !ok
    end
  | _ -> false

let witness_choice ?(limit = 8) doc ~per_keyword =
  let clipped =
    List.map (fun l -> List.filteri (fun i _ -> i < limit) l) per_keyword
  in
  let rec go chosen = function
    | [] -> Some (List.rev chosen)
    | candidates :: rest ->
      let rec try_cands = function
        | [] -> None
        | c :: more ->
          if List.for_all (fun prev -> related doc prev c) chosen then begin
            match go (c :: chosen) rest with
            | Some _ as found -> found
            | None -> try_cands more
          end
          else try_cands more
      in
      try_cands candidates
  in
  if List.exists (fun l -> l = []) clipped then None else go [] clipped

let filter (index : Index.t) keywords slcas =
  let doc = index.Index.doc in
  let ids =
    List.filter_map (Doc.keyword_id doc)
      (List.sort_uniq String.compare (List.map Token.normalize keywords))
  in
  let lists =
    List.map
      (fun kw -> (Inverted.packed_list index.Index.inverted kw).Inverted.labels)
      ids
  in
  List.filter
    (fun root ->
      let per_keyword =
        List.map
          (fun labels ->
            let lo, hi = Dewey.Packed.prefix_slice labels ~lo:0 root in
            List.init (hi - lo) (fun i -> Dewey.Packed.get labels (lo + i)))
          lists
      in
      witness_choice doc ~per_keyword <> None)
    slcas
