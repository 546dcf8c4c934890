(* Just enough of the Prometheus text exposition format to difference
   two scrapes of [/metrics]: one sample per line,
   [name{label="value",...} value], with comments and exemplar suffixes
   ignored. *)

type sample = { name : string; labels : (string * string) list; value : float }

(* Label values may contain escaped quotes, backslashes and newlines. *)
let parse_labels s i =
  let n = String.length s in
  let labels = ref [] in
  let rec skip_sep i = if i < n && (s.[i] = ',' || s.[i] = ' ') then skip_sep (i + 1) else i in
  let rec go i =
    let i = skip_sep i in
    if i >= n then None
    else if s.[i] = '}' then Some (List.rev !labels, i + 1)
    else
      match String.index_from_opt s i '=' with
      | None -> None
      | Some eq when eq + 1 < n && s.[eq + 1] = '"' ->
        let key = String.trim (String.sub s i (eq - i)) in
        let b = Buffer.create 16 in
        let rec value j =
          if j >= n then None
          else
            match s.[j] with
            | '"' -> Some (j + 1)
            | '\\' when j + 1 < n ->
              Buffer.add_char b (match s.[j + 1] with 'n' -> '\n' | c -> c);
              value (j + 2)
            | c ->
              Buffer.add_char b c;
              value (j + 1)
        in
        (match value (eq + 2) with
        | None -> None
        | Some j ->
          labels := (key, Buffer.contents b) :: !labels;
          go j)
      | Some _ -> None
  in
  go i

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    let n = String.length line in
    let rec name_end i =
      if i < n && line.[i] <> '{' && line.[i] <> ' ' then name_end (i + 1) else i
    in
    let e = name_end 0 in
    let name = String.sub line 0 e in
    let rest =
      if e < n && line.[e] = '{' then parse_labels line (e + 1) else Some ([], e)
    in
    match rest with
    | None -> None
    | Some (labels, i) -> (
      let tail = String.trim (String.sub line i (n - i)) in
      let tok =
        match String.index_opt tail ' ' with Some j -> String.sub tail 0 j | None -> tail
      in
      match float_of_string_opt tok with
      | Some value -> Some { name; labels; value }
      | None -> None)

let parse text = List.filter_map parse_line (String.split_on_char '\n' text)

(* [has (k, v) labels] holds when the sample carries label [k] = [v]. *)
let has (k, v) labels = List.assoc_opt k labels = Some v

(* [sum ?keep samples name] adds up every sample of [name] whose labels
   satisfy [keep] (default: all of them). *)
let sum ?(keep = fun _ -> true) samples name =
  List.fold_left
    (fun acc s -> if s.name = name && keep s.labels then acc +. s.value else acc)
    0. samples

let delta ?keep ~before ~after name = sum ?keep after name -. sum ?keep before name

(* Mean of a histogram over the interval between two scrapes, from its
   [_sum] and [_count] series; 0 when nothing was observed. *)
let histogram_mean ?keep ~before ~after name =
  let count = delta ?keep ~before ~after (name ^ "_count") in
  if count > 0. then delta ?keep ~before ~after (name ^ "_sum") /. count else 0.
