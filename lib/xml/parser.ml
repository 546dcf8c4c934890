exception Error of int * string

(* Deepest element nesting accepted, the root counting as level 1. The
   recursion below takes one frame per level, and indexing copies one
   Dewey prefix per ancestor type for every node, so the work per node
   grows with the square of its depth: hostile input must fail here,
   not there. Real corpora nest a handful of levels. *)
let max_depth = 64

(* Parse the children of the currently open element [tag], which sits at
   nesting level [depth], until its close tag. Returns children in
   document order. *)
let rec parse_children lx tag depth =
  let open_child () =
    if depth >= max_depth then
      raise
        (Error
           ( Lexer.pos lx,
             Printf.sprintf "elements nest deeper than the limit of %d levels"
               max_depth ))
  in
  let rec go acc =
    match Lexer.next lx with
    | Lexer.Eof -> raise (Error (Lexer.pos lx, "unexpected end of input inside <" ^ tag ^ ">"))
    | Lexer.Close_tag name ->
      if String.equal name tag then List.rev acc
      else
        raise
          (Error (Lexer.pos lx, Printf.sprintf "mismatched close tag </%s> inside <%s>" name tag))
    | Lexer.Chars s -> go (Tree.Text s :: acc)
    | Lexer.Open_close_tag (name, attrs) ->
      open_child ();
      go (Tree.Elem (Tree.elem ~attrs name []) :: acc)
    | Lexer.Open_tag (name, attrs) ->
      open_child ();
      let children = parse_children lx name (depth + 1) in
      go (Tree.Elem (Tree.elem ~attrs name children) :: acc)
  in
  go []

let parse_string s =
  let lx = Lexer.of_string s in
  try
    let root =
      match Lexer.next lx with
      | Lexer.Open_tag (name, attrs) -> Tree.elem ~attrs name (parse_children lx name 1)
      | Lexer.Open_close_tag (name, attrs) -> Tree.elem ~attrs name []
      | Lexer.Chars _ -> raise (Error (Lexer.pos lx, "character data before root element"))
      | Lexer.Close_tag _ -> raise (Error (Lexer.pos lx, "close tag before root element"))
      | Lexer.Eof -> raise (Error (Lexer.pos lx, "empty document"))
    in
    (match Lexer.next lx with
    | Lexer.Eof -> ()
    | _ -> raise (Error (Lexer.pos lx, "content after root element")));
    root
  with Lexer.Error (pos, msg) -> raise (Error (pos, msg))

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string s
