open Xr_xml
module Codec = Xr_store.Codec
module Kv = Xr_store.Kv

type t = {
  doc : Doc.t;
  inverted : Inverted.t;
  stats : Stats.t;
}

(* Compatibility name: the flat packed lists are the only
   representation, so selecting it changes nothing. *)
type mode = Flat

let build ?mode:_ doc =
  let inverted = Inverted.build doc in
  (* [Stats.build] walks only the document; the inverted table is used
     lazily (co-occurrence). *)
  let stats = Stats.build doc inverted in
  { doc; inverted; stats }

let fork t =
  let doc = Doc.fork t.doc in
  { doc; inverted = t.inverted; stats = Stats.fork t.stats ~doc }

let append_partition_delta t subtree =
  let doc, added = Doc.append_child t.doc subtree in
  let additions : (Interner.id, Inverted.posting list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (node : Doc.node) ->
      List.iter
        (fun (kw, _) ->
          let old = try Hashtbl.find additions kw with Not_found -> [] in
          Hashtbl.replace additions kw ({ Inverted.dewey = node.Doc.dewey; path = node.Doc.path } :: old))
        node.Doc.keywords)
    added;
  (* [added] is in document order, so reversing each accumulated list
     restores it *)
  let additions =
    Hashtbl.fold (fun kw l acc -> (kw, List.rev l) :: acc) additions []
  in
  let inverted =
    Inverted.extend t.inverted ~vocab_size:(Interner.size doc.Doc.keywords) additions
  in
  let stats = Stats.append t.stats ~doc ~inverted ~added in
  ({ doc; inverted; stats }, List.map fst additions)

let append_partition t subtree = fst (append_partition_delta t subtree)

let of_string s = build (Doc.of_string s)

let of_file ?mode path = build ?mode (Doc.of_file path)

(* ---- persistence ------------------------------------------------------ *)

(* A packed posting list round-trips to its stored form without an
   intermediate boxed decode: the label buffer is written verbatim, the
   offsets table as varint deltas (it is monotone by construction), node
   types as varints. Loading re-adopts the buffer zero-copy. *)
let write_packed_list buf (pk : Inverted.packed) =
  let labels, offsets, max_depth = Dewey.Packed.to_raw pk.Inverted.labels in
  Codec.write_varint buf max_depth;
  Codec.write_delta_array buf offsets;
  Codec.write_string buf labels;
  Array.iter (Codec.write_varint buf) pk.Inverted.paths

let read_packed_list r =
  let max_depth = Codec.read_varint r in
  let offsets = Codec.read_delta_array r in
  let buf = Codec.read_string r in
  let labels = Dewey.Packed.of_raw ~buf ~offsets ~max_depth in
  let paths = Array.init (Dewey.Packed.length labels) (fun _ -> Codec.read_varint r) in
  { Inverted.labels; paths }

let write_freq_row buf (path, kw, d, f) =
  Codec.write_varint buf path;
  Codec.write_varint buf kw;
  Codec.write_varint buf d;
  Codec.write_varint buf f

let read_freq_row r =
  let path = Codec.read_varint r in
  let kw = Codec.read_varint r in
  let d = Codec.read_varint r in
  let f = Codec.read_varint r in
  (path, kw, d, f)

(* Document text, frequency table, per-type aggregates and vocabulary are
   rewritten whole on every save: they are small next to the posting
   lists, which are the only part written selectively by [save_delta]. *)
let save_metadata t (kv : Kv.t) =
  kv.insert ~key:"doc" ~value:(Printer.to_string ~indent:false t.doc.tree);
  kv.insert ~key:"ft"
    ~value:(Codec.encode (fun buf l -> Codec.write_list write_freq_row buf l) (Stats.export t.stats));
  let nodes_per_path =
    Array.init (Path.size t.doc.paths) (fun p -> Stats.node_count t.stats p)
  in
  kv.insert ~key:"npt" ~value:(Codec.encode Codec.write_int_array nodes_per_path);
  kv.insert ~key:"vocab"
    ~value:
      (Codec.encode (fun buf l -> Codec.write_list Codec.write_string buf l) (Doc.vocabulary t.doc))

let save t (kv : Kv.t) =
  Inverted.iter_packed
    (fun kw pk ->
      if Inverted.packed_postings pk > 0 then
        kv.insert
          ~key:("il:" ^ Doc.keyword_name t.doc kw)
          ~value:(Codec.encode write_packed_list pk))
    t.inverted;
  save_metadata t kv;
  kv.sync ()

let save_delta t (kv : Kv.t) ~changed =
  List.iter
    (fun kw ->
      let pk = Inverted.packed_list t.inverted kw in
      if Inverted.packed_postings pk > 0 then
        kv.insert
          ~key:("il:" ^ Doc.keyword_name t.doc kw)
          ~value:(Codec.encode write_packed_list pk))
    (List.sort_uniq Int.compare changed);
  save_metadata t kv;
  kv.sync ()

let load (kv : Kv.t) =
  let get key =
    match kv.find key with
    | Some v -> v
    | None -> failwith ("Index.load: store is missing key " ^ key)
  in
  let doc = Doc.of_string (get "doc") in
  let vocab = Codec.decode (Codec.read_list Codec.read_string) (get "vocab") in
  if List.length vocab <> Interner.size doc.keywords then
    failwith "Index.load: vocabulary size mismatch with stored document";
  List.iteri
    (fun i k ->
      match Doc.keyword_id doc k with
      | Some id when id = i -> ()
      | _ -> failwith "Index.load: vocabulary order mismatch with stored document")
    vocab;
  let n = Interner.size doc.keywords in
  let lists = Array.make n Inverted.empty_packed in
  List.iteri
    (fun i k ->
      match kv.find ("il:" ^ k) with
      | None -> ()
      | Some v -> lists.(i) <- Codec.decode read_packed_list v)
    vocab;
  let inverted = Inverted.of_packed lists in
  let rows = Codec.decode (Codec.read_list read_freq_row) (get "ft") in
  let nodes_per_path = Codec.decode Codec.read_int_array (get "npt") in
  if Array.length nodes_per_path <> Path.size doc.paths then
    failwith "Index.load: node-type table mismatch with stored document";
  let stats =
    try Stats.import doc inverted ~rows ~nodes_per_path
    with Failure msg -> failwith ("Index.load: key ft: " ^ msg)
  in
  { doc; inverted; stats }
