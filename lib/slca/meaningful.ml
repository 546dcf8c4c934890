open Xr_xml
module Stats = Xr_index.Stats

type t = {
  doc : Doc.t;
  candidates : (Path.id * float) list;
  (* Meaningfulness depends only on the result node's path type, and SLCA
     result sets draw from a handful of types; decide each type once. *)
  memo : (Path.id, bool) Hashtbl.t;
}

let make ?config stats keywords =
  {
    doc = Stats.doc stats;
    candidates = Search_for.infer ?config stats keywords;
    memo = Hashtbl.create 16;
  }

let candidates t = t.candidates

let is_meaningful t ~path =
  match Hashtbl.find_opt t.memo path with
  | Some b -> b
  | None ->
    let b =
      List.exists
        (fun (cand, _) ->
          Path.is_prefix t.doc.Doc.paths ~ancestor:cand ~descendant:path)
        t.candidates
    in
    Hashtbl.add t.memo path b;
    b

let is_meaningful_dewey t dewey =
  match Doc.path_of_dewey t.doc dewey with
  | Some path -> is_meaningful t ~path
  | None -> false

let filter t slcas = List.filter (is_meaningful_dewey t) slcas
